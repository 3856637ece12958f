//! `AUD010_UNREFERENCED_PUB_FN`: public functions nothing calls.
//!
//! rustc's `dead_code` lint never fires on a `pub` item, so a public
//! function whose last caller went away stays compiled, documented and
//! unit-tested indefinitely. This rule makes the workspace-wide check
//! rustc cannot: a `pub fn` (free function or inherent method) in an
//! audited file is flagged when
//!
//! * no non-test code in its own file names it,
//! * no other file of the reference corpus names it — in code (test
//!   code included) or inside a doctest fence — and
//! * it carries no `// audit: allow(AUD010): <why>` marker.
//!
//! The check is by name, not by resolved path, so it errs toward
//! keeping: a function shares its liveness with every same-named item.
//! Three token contexts are not references: the name a `fn` declares,
//! the paths of a `use` statement (a re-export is not a caller, unless
//! it renames the item with `as`), and prose in comments.
//!
//! Every file is tokenized once into identifier sets; the rule then
//! answers each candidate with set lookups.

use crate::diag::{AuditConfig, AuditRule, Finding};
use crate::scan::ScannedFile;
use std::collections::{HashMap, HashSet};

/// What one file names and declares.
#[derive(Default)]
struct FileRefs {
    /// Identifiers named by non-test code.
    lib: HashSet<String>,
    /// Identifiers named anywhere: code, test code, doctests.
    all: HashSet<String>,
    /// Non-test `pub fn` declarations: (name, 0-based line index).
    pub_fns: Vec<(String, usize)>,
}

/// A token of masked code: an identifier or one punctuation character.
#[derive(Clone, Copy, PartialEq)]
enum Token<'a> {
    Ident(&'a str),
    Punct(char),
}

fn tokens(code: &str) -> impl Iterator<Item = Token<'_>> {
    let mut rest = code;
    std::iter::from_fn(move || {
        rest = rest.trim_start();
        let first = rest.chars().next()?;
        if first.is_alphabetic() || first == '_' {
            let end = rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            let (ident, tail) = rest.split_at(end);
            rest = tail;
            Some(Token::Ident(ident))
        } else {
            rest = &rest[first.len_utf8()..];
            Some(Token::Punct(first))
        }
    })
}

/// Statement-level state carried across lines while tokenizing.
#[derive(Default)]
struct Walker<'a> {
    /// A `pub` (possibly followed by `const`/`unsafe`/`async`) was the
    /// last thing seen.
    pub_pending: bool,
    /// The next identifier is the name a `fn` declares; `Some(true)`
    /// when that `fn` is `pub`.
    declaring: Option<bool>,
    /// Inside a `use` statement, up to its `;`.
    in_use: bool,
    /// The previous identifier inside the current `use` statement.
    last_use_ident: Option<&'a str>,
}

/// What the walker makes of one identifier token.
enum Seen<'a> {
    Reference(&'a str),
    Declared { name: &'a str, public: bool },
    Nothing,
}

impl<'a> Walker<'a> {
    fn step(&mut self, token: Token<'a>) -> Seen<'a> {
        let Token::Ident(ident) = token else {
            self.declaring = None;
            self.pub_pending &= token == Token::Punct('"');
            if token == Token::Punct(';') {
                self.in_use = false;
            }
            return Seen::Nothing;
        };
        if let Some(public) = self.declaring.take() {
            return Seen::Declared {
                name: ident,
                public,
            };
        }
        match ident {
            "fn" => {
                self.declaring = Some(self.pub_pending);
                self.pub_pending = false;
                Seen::Nothing
            }
            "pub" => {
                self.pub_pending = true;
                Seen::Nothing
            }
            "const" | "unsafe" | "async" | "extern" => Seen::Nothing,
            "use" => {
                self.in_use = true;
                self.pub_pending = false;
                self.last_use_ident = None;
                Seen::Nothing
            }
            _ if self.in_use => {
                let renamed = match (ident, self.last_use_ident) {
                    ("as", Some(prev)) => Seen::Reference(prev),
                    _ => Seen::Nothing,
                };
                self.last_use_ident = Some(ident);
                renamed
            }
            _ => {
                self.pub_pending = false;
                Seen::Reference(ident)
            }
        }
    }
}

/// The text of a `///` or `//!` doc-comment line, if `raw` is one.
fn doc_text(raw: &str) -> Option<&str> {
    let t = raw.trim_start();
    t.strip_prefix("///").or_else(|| t.strip_prefix("//!"))
}

fn file_refs(file: &ScannedFile) -> FileRefs {
    let mut refs = FileRefs::default();
    let mut code = Walker::default();
    let mut doctest: Option<Walker<'_>> = None;
    for (index, line) in file.lines.iter().enumerate() {
        if let Some(doc) = doc_text(&line.raw) {
            if doc.trim_start().starts_with("```") {
                doctest = match doctest {
                    Some(_) => None,
                    None => Some(Walker::default()),
                };
            } else if let Some(walker) = doctest.as_mut() {
                for token in tokens(doc) {
                    if let Seen::Reference(name) = walker.step(token) {
                        refs.all.insert(name.to_string());
                    }
                }
            }
            continue;
        }
        for token in tokens(&line.masked) {
            match code.step(token) {
                Seen::Reference(name) => {
                    if !line.in_test {
                        refs.lib.insert(name.to_string());
                    }
                    refs.all.insert(name.to_string());
                }
                Seen::Declared { name, public } => {
                    if public && !line.in_test {
                        refs.pub_fns.push((name.to_string(), index));
                    }
                }
                Seen::Nothing => {}
            }
        }
    }
    refs
}

/// Runs AUD010 over `audited` files, counting references from them and
/// from `corpus` (files that can call but are not themselves checked).
pub(crate) fn unreferenced_pub_fns(
    audited: &[ScannedFile],
    corpus: &[ScannedFile],
    config: &AuditConfig,
) -> Vec<Finding> {
    let audited_refs: Vec<FileRefs> = audited.iter().map(file_refs).collect();
    let corpus_refs: Vec<FileRefs> = corpus.iter().map(file_refs).collect();
    let mut files_naming: HashMap<String, usize> = HashMap::new();
    for refs in audited_refs.iter().chain(&corpus_refs) {
        for name in &refs.all {
            *files_naming.entry(name.clone()).or_default() += 1;
        }
    }
    let mut findings = Vec::new();
    for (file, refs) in audited.iter().zip(&audited_refs) {
        for (name, index) in &refs.pub_fns {
            let elsewhere =
                files_naming.get(name).copied().unwrap_or(0) - usize::from(refs.all.contains(name));
            if refs.lib.contains(name) || elsewhere > 0 {
                continue;
            }
            let message = format!(
                "`pub fn {name}` has no caller: no non-test code in its file and no \
                 other file (code, tests, examples, perfbench, doctests) names it; \
                 delete it with the tests that only exercise it, or justify with \
                 `// audit: allow(AUD010): <why>`"
            );
            findings.extend(crate::rules::finding(
                config,
                AuditRule::UnreferencedPubFn,
                file,
                *index,
                message,
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_source;

    const LIB: &str = "crates/x/src/lib.rs";
    const DEAD: &str = "/// Converts.\npub fn to_ghz(hz: f64) -> f64 {\n    hz * 1e-9\n}\n";

    /// AUD010 names flagged when `audited` is checked against `corpus`.
    fn flagged(audited: &[(&str, &str)], corpus: &[(&str, &str)]) -> Vec<String> {
        let scan = |files: &[(&str, &str)]| -> Vec<ScannedFile> {
            files.iter().map(|(p, t)| scan_source(p, t)).collect()
        };
        unreferenced_pub_fns(&scan(audited), &scan(corpus), &AuditConfig::new())
            .iter()
            .map(|f| format!("{}:{}", f.file, f.line))
            .collect()
    }

    #[test]
    fn fires_on_an_unreferenced_pub_fn() {
        assert_eq!(flagged(&[(LIB, DEAD)], &[]), vec![format!("{LIB}:2")]);
    }

    #[test]
    fn own_test_module_and_re_export_are_not_callers() {
        let own_test = format!(
            "{DEAD}#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{ super::to_ghz(1.0); }}\n}}\n"
        );
        let reexport = "pub use crate::units::{to_ghz, Ghz};\n";
        assert_eq!(
            flagged(
                &[(LIB, &own_test), ("crates/x/src/prelude.rs", reexport)],
                &[]
            ),
            vec![format!("{LIB}:2")]
        );
    }

    #[test]
    fn silent_when_another_lib_file_calls_it() {
        let caller = "pub fn run() -> f64 {\n    crate::to_ghz(1.0)\n}\n";
        let user = "fn main() { x::run(); }\n";
        let audited = [(LIB, DEAD), ("crates/x/src/run.rs", caller)];
        assert!(flagged(&audited, &[("examples/demo.rs", user)]).is_empty());
    }

    #[test]
    fn silent_when_a_test_or_perfbench_file_calls_it() {
        let user = "use x::to_ghz;\n#[test]\nfn t() { assert!(to_ghz(1e9) == 1.0); }\n";
        assert!(flagged(&[(LIB, DEAD)], &[("tests/units.rs", user)]).is_empty());
        assert!(flagged(&[(LIB, DEAD)], &[("perfbench/src/main.rs", user)]).is_empty());
    }

    #[test]
    fn doctest_counts_but_prose_does_not() {
        let doctest = "//! ```\n//! let g = x::to_ghz(2.4e9);\n//! ```\n";
        assert!(flagged(&[(LIB, DEAD), ("crates/x/src/doc.rs", doctest)], &[]).is_empty());
        let prose = "//! See [`to_ghz`] for the conversion.\n";
        assert_eq!(
            flagged(&[(LIB, DEAD), ("crates/x/src/doc.rs", prose)], &[]),
            vec![format!("{LIB}:2")]
        );
    }

    #[test]
    fn silent_under_the_allow_marker() {
        let src = "// audit: allow(AUD010): reference baseline for the solver tests.\n\
                   pub fn to_ghz(hz: f64) -> f64 { hz * 1e-9 }\n";
        assert!(flagged(&[(LIB, src)], &[]).is_empty());
    }

    #[test]
    fn silent_when_called_by_lib_code_in_its_own_file() {
        let src = format!(
            "{DEAD}pub fn band(hz: f64) -> String {{\n    format!(\"{{}}\", to_ghz(hz))\n}}\n"
        );
        assert_eq!(
            flagged(
                &[(LIB, &src)],
                &[("tests/band.rs", "fn t() { x::band(1.0); }\n")]
            ),
            Vec::<String>::new()
        );
    }

    #[test]
    fn declarations_elsewhere_and_private_fns_are_not_references() {
        let twin = "pub trait Units {\n    fn to_ghz(&self) -> f64;\n}\nfn helper() {}\n";
        assert_eq!(
            flagged(&[(LIB, DEAD), ("crates/y/src/lib.rs", twin)], &[]),
            vec![format!("{LIB}:2")]
        );
        let private = "fn unused_private() {}\npub(crate) fn unused_crate() {}\n";
        assert!(flagged(&[(LIB, private)], &[]).is_empty());
    }

    #[test]
    fn renaming_re_export_is_a_reference() {
        let rename = "pub use crate::to_ghz as ghz;\n";
        let user = "fn main() { x::ghz(1.0); }\n";
        assert!(flagged(
            &[(LIB, DEAD), ("crates/x/src/alias.rs", rename)],
            &[("examples/alias.rs", user)]
        )
        .is_empty());
    }

    #[test]
    fn qualified_pub_fns_are_candidates() {
        let src = "pub const fn kilo() -> f64 { 1e3 }\npub unsafe fn raw() {}\n";
        assert_eq!(
            flagged(&[(LIB, src)], &[]),
            vec![format!("{LIB}:1"), format!("{LIB}:2")]
        );
    }
}

//! `AUD010_UNREFERENCED_PUB_FN`: public items nothing names.
//!
//! rustc's `dead_code` lint never fires on a `pub` item, so a public
//! item whose last user went away stays compiled, documented and
//! unit-tested indefinitely. This rule makes the workspace-wide check
//! rustc cannot: a `pub fn` (free function or inherent method), `pub
//! struct`, `enum`, `trait`, `type`, `const` or `static` in an audited
//! file is flagged when
//!
//! * no non-test code in its own file names it,
//! * no other file of the reference corpus names it — in code (test
//!   code included), inside a doctest fence, or as an inline format
//!   argument (`{NAME}` or `{NAME:…}` inside a string literal) — and
//! * it carries no `// audit: allow(AUD010): <why>` marker.
//!
//! Test code in *another* file counts as a user. Reference paths (the
//! dense operating point the differential oracle compares against),
//! test seams (fault-plan builders, `without_timings`) and paper
//! targets exist for tests by design; only an item whose sole user is
//! its own file's test module is dead.
//!
//! The check is by name, not by resolved path, so it errs toward
//! keeping: an item shares its liveness with every same-named item, and
//! a type is named by its own `impl` blocks. Four token contexts are
//! not references: the name an item declares, a lifetime (`'static`),
//! the paths of a `use` statement (a re-export is not a user, unless it
//! renames the item with `as`), and prose in comments. The rule code
//! keeps its original `PUB_FN` spelling so existing markers and
//! configurations stay valid.
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
    /// Non-test `pub` item declarations: (kind, name, 0-based line
    /// index).
    pub_items: Vec<(&'static str, String, usize)>,
}

/// The keywords that declare a candidate item, as the message names
/// its kind.
const ITEM_KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

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
    /// A `pub` (possibly followed by `unsafe`/`async`/`extern`) was the
    /// last thing seen.
    pub_pending: bool,
    /// The next identifier is the name an item of this kind declares,
    /// and whether that item is `pub`.
    declaring: Option<(&'static str, bool)>,
    /// Inside a `use` statement, up to its `;`.
    in_use: bool,
    /// The previous identifier inside the current `use` statement.
    last_use_ident: Option<&'a str>,
    /// The previous token was a `'`: an identifier now is a lifetime.
    after_quote: bool,
}

/// What the walker makes of one identifier token.
enum Seen<'a> {
    Reference(&'a str),
    Declared {
        kind: &'static str,
        name: &'a str,
        public: bool,
    },
    Nothing,
}

impl<'a> Walker<'a> {
    fn step(&mut self, token: Token<'a>) -> Seen<'a> {
        let after_quote = std::mem::replace(&mut self.after_quote, token == Token::Punct('\''));
        let Token::Ident(ident) = token else {
            self.declaring = None;
            self.pub_pending &= token == Token::Punct('"');
            if token == Token::Punct(';') {
                self.in_use = false;
            }
            return Seen::Nothing;
        };
        if after_quote {
            return Seen::Nothing;
        }
        if let Some((kind, public)) = self.declaring.take() {
            // `const fn`, `const unsafe fn`: the qualifiers and then the
            // `fn` come before the name.
            return match ident {
                "fn" => {
                    self.declaring = Some(("fn", public));
                    Seen::Nothing
                }
                "unsafe" | "async" | "extern" => {
                    self.declaring = Some((kind, public));
                    Seen::Nothing
                }
                _ => Seen::Declared {
                    kind,
                    name: ident,
                    public,
                },
            };
        }
        if let Some(kind) = ITEM_KINDS.iter().find(|k| **k == ident) {
            self.declaring = Some((kind, self.pub_pending));
            self.pub_pending = false;
            return Seen::Nothing;
        }
        match ident {
            "pub" => {
                self.pub_pending = true;
                Seen::Nothing
            }
            "unsafe" | "async" | "extern" => Seen::Nothing,
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

/// The identifiers a string literal names as inline format arguments:
/// `{NAME}` or `{NAME:spec}`. An escaped `{{NAME}}` counts too, which
/// only errs toward keeping.
fn format_args(text: &str) -> impl Iterator<Item = &str> {
    text.split('{').skip(1).filter_map(|rest| {
        let end = rest
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        let (name, tail) = rest.split_at(end);
        let named = name.starts_with(|c: char| c.is_alphabetic() || c == '_');
        (named && (tail.starts_with('}') || tail.starts_with(':'))).then_some(name)
    })
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
        let names = tokens(&line.masked).filter_map(|token| match code.step(token) {
            Seen::Reference(name) => Some(name),
            Seen::Declared { kind, name, public } => {
                if public && !line.in_test {
                    refs.pub_items.push((kind, name.to_string(), index));
                }
                None
            }
            Seen::Nothing => None,
        });
        let format_names = line.strings.iter().flat_map(|text| format_args(text));
        for name in names.chain(format_names) {
            if !line.in_test {
                refs.lib.insert(name.to_string());
            }
            refs.all.insert(name.to_string());
        }
    }
    refs
}

/// Runs AUD010 over `audited` files, counting references from them and
/// from `corpus` (files that can name items but are not themselves
/// checked).
pub(crate) fn unreferenced_pub_items(
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
        for (kind, name, index) in &refs.pub_items {
            let elsewhere =
                files_naming.get(name).copied().unwrap_or(0) - usize::from(refs.all.contains(name));
            if refs.lib.contains(name) || elsewhere > 0 {
                continue;
            }
            let message = format!(
                "`pub {kind} {name}` is never used: no non-test code in its file and \
                 no other file (code, tests, examples, perfbench, doctests, format \
                 strings) names it; delete it with the tests that only exercise it, \
                 or justify with `// audit: allow(AUD010): <why>`"
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
        unreferenced_pub_items(&scan(audited), &scan(corpus), &AuditConfig::new())
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
        // The trait that declares the twin is itself unused.
        let twin = "pub trait Units {\n    fn to_ghz(&self) -> f64;\n}\nfn helper() {}\n";
        assert_eq!(
            flagged(&[(LIB, DEAD), ("crates/y/src/lib.rs", twin)], &[]),
            vec![format!("{LIB}:2"), "crates/y/src/lib.rs:1".to_string()]
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

    /// AUD010 messages for `audited` checked on its own.
    fn messages(audited: &[(&str, &str)]) -> Vec<String> {
        let scanned: Vec<ScannedFile> = audited.iter().map(|(p, t)| scan_source(p, t)).collect();
        unreferenced_pub_items(&scanned, &[], &AuditConfig::new())
            .into_iter()
            .map(|f| f.message)
            .collect()
    }

    #[test]
    fn fires_on_a_dead_const_and_names_its_kind() {
        let src = "/// Elementary charge.\npub const Q_ELECTRON: f64 = 1.602e-19;\n";
        assert_eq!(flagged(&[(LIB, src)], &[]), vec![format!("{LIB}:2")]);
        let message = &messages(&[(LIB, src)])[0];
        assert!(
            message.starts_with("`pub const Q_ELECTRON` is never used"),
            "{message}"
        );
        assert!(messages(&[(LIB, DEAD)])[0].starts_with("`pub fn to_ghz`"));
        let user = "fn main() { let q = x::Q_ELECTRON; }\n";
        assert!(flagged(&[(LIB, src)], &[("examples/q.rs", user)]).is_empty());
    }

    #[test]
    fn fires_on_a_dead_trait_struct_enum_type_and_static() {
        let src = "pub trait Units {\n    fn ghz(&self) -> f64;\n}\n\
                   pub struct Probe;\npub enum Band { Low }\n\
                   pub type Hz = f64;\npub static LIMIT: u32 = 3;\n";
        assert_eq!(
            messages(&[(LIB, src)])
                .iter()
                .map(|m| m.split(" is never used").next().unwrap_or_default())
                .collect::<Vec<_>>(),
            vec![
                "`pub trait Units`",
                "`pub struct Probe`",
                "`pub enum Band`",
                "`pub type Hz`",
                "`pub static LIMIT`",
            ]
        );
        // An implementation names the trait and the type.
        let user = "impl x::Units for x::Probe {\n    fn ghz(&self) -> f64 { 1.0 }\n}\n";
        assert_eq!(
            flagged(&[(LIB, src)], &[("tests/units.rs", user)]),
            vec![format!("{LIB}:5"), format!("{LIB}:6"), format!("{LIB}:7")]
        );
    }

    #[test]
    fn an_inline_format_argument_is_a_reference() {
        let version = "pub const SCHEMA_VERSION: u32 = 2;\n";
        for render in [
            "pub fn render() -> String {\n    format!(\"v{SCHEMA_VERSION}\")\n}\n",
            "pub fn render() -> String {\n    format!(\"v{SCHEMA_VERSION:>4}\")\n}\n",
        ] {
            let audited = [(LIB, version), ("crates/x/src/render.rs", render)];
            assert!(
                flagged(&audited, &[("tests/r.rs", "fn t() { x::render(); }\n")]).is_empty(),
                "{render}"
            );
        }
        // A positional or numbered argument names nothing.
        let positional = "pub fn render() -> String {\n    format!(\"v{} {0}\", 1)\n}\n";
        assert_eq!(
            flagged(
                &[(LIB, version), ("crates/x/src/render.rs", positional)],
                &[("tests/r.rs", "fn t() { x::render(); }\n")]
            ),
            vec![format!("{LIB}:1")]
        );
    }

    #[test]
    fn lifetimes_and_const_fns_are_not_declarations() {
        // `'static` is a lifetime: the type after it is still named.
        let src = "pub struct Table;\npub fn table() -> &'static Table {\n    loop {}\n}\n";
        let user = "fn main() { x::table(); }\n";
        assert!(flagged(&[(LIB, src)], &[("examples/t.rs", user)]).is_empty());
        let qualified = "pub const unsafe fn raw() {}\n";
        assert_eq!(
            messages(&[(LIB, qualified)])
                .iter()
                .map(|m| m.split(" is never used").next().unwrap_or_default())
                .collect::<Vec<_>>(),
            vec!["`pub fn raw`"]
        );
    }
}

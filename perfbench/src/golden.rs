//! Committed reference outputs and the per-op comparison against them.
//!
//! A golden file holds one entry per line, `<key> <value> <value> ...`,
//! with `#` comments. A line that does not parse is skipped, so a
//! corrupted entry leaves its key missing: every op that needs it then
//! fails its check and is counted, and the run goes on.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Default, Clone, PartialEq)]
pub struct Goldens {
    entries: BTreeMap<String, Vec<f64>>,
    /// Lines that did not parse.
    pub malformed: usize,
}

impl Goldens {
    pub fn parse(text: &str) -> Goldens {
        let mut g = Goldens::default();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tokens = line.split_whitespace();
            let key = tokens.next().unwrap_or_default().to_string();
            let values: Result<Vec<f64>, _> = tokens.map(str::parse::<f64>).collect();
            match values {
                Ok(v) if !v.is_empty() && v.iter().all(|x| x.is_finite()) => {
                    g.entries.insert(key, v);
                }
                _ => g.malformed += 1,
            }
        }
        g
    }

    /// Reads `path`; a missing or unreadable file is an error, since
    /// no op could then be checked.
    pub fn load(path: &Path) -> Result<Goldens, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read goldens {}: {e}", path.display()))?;
        let g = Goldens::parse(&text);
        if g.malformed > 0 {
            eprintln!(
                "warning: {} malformed line(s) in {}; ops needing them will fail",
                g.malformed,
                path.display()
            );
        }
        Ok(g)
    }

    pub fn insert(&mut self, key: String, values: Vec<f64>) {
        self.entries.insert(key, values);
    }

    /// Compares `got` against the entry `key`; value `i` may differ by
    /// at most `tol(i, golden)`.
    pub fn check(
        &self,
        key: &str,
        got: &[f64],
        tol: impl Fn(usize, f64) -> f64,
    ) -> Result<(), String> {
        let want = self
            .entries
            .get(key)
            .ok_or_else(|| format!("no golden entry '{key}'"))?;
        if want.len() != got.len() {
            return Err(format!(
                "'{key}': {} values, golden has {}",
                got.len(),
                want.len()
            ));
        }
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            if !g.is_finite() || (g - w).abs() > tol(i, w) {
                return Err(format!(
                    "'{key}' value {i}: got {g:e}, golden {w:e}, tolerance {:e}",
                    tol(i, w)
                ));
            }
        }
        Ok(())
    }

    pub fn render(&self, header: &str) -> String {
        let mut out = String::new();
        for line in header.lines() {
            let _ = writeln!(out, "# {line}");
        }
        for (key, values) in &self.entries {
            let joined: Vec<String> = values.iter().map(|v| format!("{v:e}")).collect();
            let _ = writeln!(out, "{key} {}", joined.join(" "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(_: usize, _: f64) -> f64 {
        1e-12
    }

    #[test]
    fn round_trips_through_render() {
        let mut g = Goldens::default();
        g.insert("a/1".into(), vec![1.5e-3, -2.0]);
        let back = Goldens::parse(&g.render("header"));
        assert_eq!(back, g);
        assert_eq!(back.check("a/1", &[1.5e-3, -2.0], exact), Ok(()));
    }

    #[test]
    fn corrupted_golden_is_a_failed_check_not_a_crash() {
        let g = Goldens::parse("a/1 1.0 2.0\na/2 1.0 zwei\na/3 1.0\n");
        assert_eq!(g.malformed, 1);
        assert!(
            g.check("a/2", &[1.0, 2.0], exact).is_err(),
            "unparsable entry"
        );
        assert!(
            g.check("a/3", &[1.0, 2.0], exact).is_err(),
            "truncated entry"
        );
        assert!(g.check("a/1", &[1.0, 2.1], exact).is_err(), "changed value");
        assert!(
            g.check("a/1", &[1.0, f64::NAN], exact).is_err(),
            "NaN output"
        );
        assert_eq!(g.check("a/1", &[1.0, 2.0], exact), Ok(()));
    }
}

//! Benchmark-side spans around the calls into each layer.
//!
//! Spans live in memory while the run measures and are written out as
//! JSON lines when it ends. Nothing here reaches into the program: a
//! span brackets a public call made by the benchmark. A disarmed
//! tracer records nothing, so timed runs pay one branch per span.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The op this span belongs to; `None` for set-up and probes.
    pub op: Option<u64>,
}

/// Handle of an entered span (`None` when the tracer is disarmed).
pub type SpanId = Option<usize>;

#[derive(Debug)]
pub struct Tracer {
    armed: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            armed: false,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_armed(&mut self, armed: bool) {
        self.armed = armed;
    }

    pub fn is_armed(&self) -> bool {
        self.armed
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Enters a root span for op `op`.
    pub fn enter_op(&mut self, name: &'static str, op: u64) -> SpanId {
        self.push(name, Some(op))
    }

    /// Enters a span under the innermost open one, inheriting its op.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let op = self.open.last().and_then(|&i| self.spans[i].op);
        self.push(name, op)
    }

    fn push(&mut self, name: &'static str, op: Option<u64>) -> SpanId {
        if !self.armed {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id` (and anything left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (count, total ns, self ns). A span's self time is
    /// its duration minus the time its children cover; children of one
    /// span never overlap because spans nest as a stack.
    pub fn rollup(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child);
        }
        out
    }

    /// Writes the span tree as JSON lines after a header line carrying
    /// `stamp` (a JSON object).
    pub fn write_jsonl(&self, path: &Path, stamp: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"stamp\":{stamp}}}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = s.op.map_or("null".to_string(), |o| o.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        let id = t.enter_op("op", 0);
        t.exit(id);
        assert!(id.is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn children_inherit_op_and_self_time_excludes_them() {
        let mut t = Tracer::new(Instant::now());
        t.set_armed(true);
        let op = t.enter_op("op", 7);
        let child = t.enter("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(child);
        t.exit(op);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, Some(7));
        let roll = t.rollup();
        let (n, total, self_ns) = roll["op"];
        assert_eq!(n, 1);
        assert_eq!(total - self_ns, spans[1].end_ns - spans[1].start_ns);
    }
}

//! In-memory spans for the traced run.
//!
//! Every pass, rep and replay of the traced run is one span: name, start,
//! end, the span that caused it, and the workload it belongs to. Spans are
//! recorded from the benchmark's own files, around the calls into each
//! layer; they stay in memory while the run measures and are written as
//! JSON lines when it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span within its [`Spans`] recorder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

struct Span {
    name: String,
    start_ns: u64,
    end_ns: Option<u64>,
    parent: Option<usize>,
}

/// Span recorder for one workload's traced run.
pub struct Spans {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose clock starts now.
    pub fn new(workload: &str) -> Spans {
        Spans {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: None,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` and any span still open inside it.
    pub fn exit(&mut self, id: SpanId) {
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = Some(end);
            if top == id.0 {
                break;
            }
        }
    }

    /// Writes one JSON object per span, in start order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let now = self.now_ns();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"workload\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.workload,
                s.name,
                s.start_ns,
                s.end_ns.unwrap_or(now),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let mut spans = Spans::new("w");
        let pass = spans.enter("pass");
        let rep = spans.enter("rep");
        spans.exit(rep);
        let replay = spans.enter("replay");
        spans.exit(pass); // closes `replay` too
        assert_eq!(spans.spans.len(), 3);
        assert_eq!(spans.spans[rep.0].parent, Some(pass.0));
        assert_eq!(spans.spans[replay.0].parent, Some(pass.0));
        assert!(spans.spans.iter().all(|s| s.end_ns.is_some()));
        assert!(spans.open.is_empty());
    }
}

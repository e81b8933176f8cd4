//! In-memory span recorder for the traced run.
//!
//! A span is one timed call the benchmark makes into a layer's public API:
//! name, start and end (host ns since the recorder was made) and the index
//! of the enclosing span. Spans stay in memory and are written out once,
//! as JSON lines, when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// No enclosing span.
const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified call name, e.g. `dqueue.pick`.
    pub name: &'static str,
    /// Host ns since the recorder's origin.
    pub start_ns: u64,
    /// Host ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` at top level.
    pub parent: u32,
}

/// Records spans; nesting follows call order.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; spans opened before the matching [`Spans::exit`] are
    /// its children.
    pub fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now_ns();
        let idx = self.open.pop().expect("exit matches an enter");
        self.spans[idx as usize].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Durations (ns) of every closed span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
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
    fn nested_spans_record_their_parent() {
        let mut s = Spans::new();
        s.time("outer", || ());
        s.enter("a");
        s.time("b", || ());
        s.exit();
        assert_eq!(s.len(), 3);
        assert_eq!(s.spans[0].parent, ROOT);
        assert_eq!(s.spans[2].parent, 1, "b nests inside a");
        assert!(s.spans[1].end_ns >= s.spans[2].end_ns);
        assert_eq!(s.durations("b").len(), 1);
    }
}

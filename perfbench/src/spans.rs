//! In-memory span recorder for the traced run. Spans are kept in memory
//! while the run measures and written out once it ends, so recording
//! costs two clock reads and a push.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer metric name, e.g. `trace.decode`.
    pub name: &'static str,
    /// Which of the workload's inputs the call worked on.
    pub input: usize,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A span log with one time origin, shareable across threads by giving
/// each thread its own recorder on the same origin and merging after.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    /// The shared time origin (for recorders on other threads).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, input: usize, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            input,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        input: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, input, parent);
        let r = std::hint::black_box(f());
        self.close(id);
        r
    }

    /// Moves every span of `other`, recorded on the same origin by
    /// another thread, into this log.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans to `path` and says so in a one-line note.
    pub fn save(&self, path: &Path) -> Result<String, String> {
        self.write_jsonl(path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(format!(
            "{} spans written to {}",
            self.spans.len(),
            path.display()
        ))
    }

    /// Writes one JSON object per span to `path`.
    fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"input\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.input, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

//! In-memory spans around the benchmark's calls into each library layer.
//!
//! A span records its layer, the call it wraps, start and end (ns since
//! the tracer was created), the enclosing span and the query request it
//! belongs to. Spans stay in memory and are written out once, at exit.
//! With tracing off, [`Tracer::begin`] and [`Tracer::end`] do nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub layer: &'static str,
    pub call: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub qid: u64,
}

pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer` around `call`; spans opened before the
    /// matching [`Tracer::end`] become its children. Returns the span id.
    pub fn begin(&mut self, layer: &'static str, call: &'static str, qid: u64) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            call,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            qid,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span a panic left open inside it).
    pub fn end(&mut self, id: usize) {
        if id == usize::MAX {
            return;
        }
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Each layer's self time in ns: its spans' durations minus the time
    /// their direct children cover (children never overlap: one client
    /// thread opens them one after another).
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Writes `header` and then one JSON object per span, one per line.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"layer\":\"{}\",\"call\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"qid\":{}}}",
                s.layer, s.call, s.start_ns, s.end_ns, s.qid
            )?;
        }
        w.flush()
    }
}

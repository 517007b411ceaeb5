//! Spans around the benchmark's own calls into each layer, kept in memory
//! and written as one JSON file when the run ends.
//!
//! A span has a layer, an operation, the request id it belongs to (the
//! call's index, or the client's request id), start and end times, and the
//! span that caused it: phase spans are the parents of call spans.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

struct Span {
    layer: &'static str,
    op: &'static str,
    parent: Option<SpanId>,
    req: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    t0: Instant,
    /// A disabled tracer keeps nothing: the untraced twin of a traced phase.
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            t0: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a finished span; returns its id.
    pub fn span(
        &mut self,
        layer: &'static str,
        op: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if self.enabled {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                layer,
                op,
                parent,
                req,
                start_ns,
                end_ns,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Opens a span whose end is set by [`close`](Self::close).
    pub fn open(
        &mut self,
        layer: &'static str,
        op: &'static str,
        parent: Option<SpanId>,
    ) -> SpanId {
        let now = Instant::now();
        self.span(layer, op, parent, 0, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"spans\": [")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {id}, \"parent\": {parent}, \"layer\": \"{}\", \"op\": \"{}\", \
                 \"req\": {}, \"start_ns\": {}, \"dur_ns\": {}}}{sep}",
                s.layer,
                s.op,
                s.req,
                s.start_ns,
                s.end_ns.saturating_sub(s.start_ns)
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

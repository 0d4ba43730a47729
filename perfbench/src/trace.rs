//! In-memory spans recorded at the boundaries the benchmark itself crosses
//! (campaign run → cell, engine slice, client burst → request), written out
//! as JSON lines when the run ends.  A disabled tracer records nothing and
//! costs one branch per boundary.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept per tracer; later ones are counted as dropped so a long run
/// cannot grow memory without bound.
const MAX_SPANS: usize = 1 << 16;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    next_id: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer whose span ids start at `id_base` (one base per thread keeps
    /// ids unique after [`absorb`](Self::absorb)).
    pub fn new(origin: Instant, enabled: bool, id_base: u64) -> Self {
        Self {
            origin,
            enabled,
            next_id: id_base + 1,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A tracer for another thread: same origin and switch, its own ids
    /// (merge it back with [`absorb`](Self::absorb)).
    pub fn child(&self, id_base: u64) -> Tracer {
        Tracer::new(self.origin, self.enabled, id_base)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the shared origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserve a span id (so children can name their parent before the
    /// parent's own span is closed).
    pub fn id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record a finished span; a no-op when disabled.
    pub fn record(&mut self, id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.dropped += other.dropped;
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

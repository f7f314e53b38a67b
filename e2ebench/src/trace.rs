//! In-memory span recorder for the traced run. Spans are opened and closed
//! by the benchmark around its calls into each layer, kept in memory, and
//! written out as JSON lines once the run is over.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

pub struct Span {
    pub name: &'static str,
    /// Cell (independent world) the span belongs to.
    pub run: u32,
    pub parent: Option<SpanId>,
    /// Host nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts recorded at the span's boundaries (deltas over the span).
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    pub fn attr(&self, key: &str) -> f64 {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |&(_, v)| v)
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, run: u32, parent: Option<SpanId>, name: &'static str) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            run,
            parent,
            start_ns,
            end_ns: start_ns,
            attrs: Vec::new(),
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId, attrs: Vec<(&'static str, f64)>) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.attrs = attrs;
    }

    /// Spans named `name`, in the order they were opened.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Write every span as one JSON object per line, after a header line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        out.push_str(header);
        out.push('\n');
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"attrs\":{{",
                s.run, s.name, s.start_ns, s.end_ns
            );
            for (i, (k, v)) in s.attrs.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{k}\":{v}");
            }
            out.push_str("}}\n");
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

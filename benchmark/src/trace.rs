//! Spans recorded from the benchmark's side of each call into a layer.
//!
//! A span is `(name, start, end, parent, request)`; they stay in memory
//! while the run measures and are written as JSON lines when it ends.
//! From outside, a call such as `deliver` has no visible children, so its
//! self time is its whole duration.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// What the call worked on: the frame index inside a sample, or the
    /// number of inputs of a replayed batch.
    pub request: u64,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    parent: Option<u32>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

impl Spans {
    pub fn new() -> Spans {
        Spans { epoch: Instant::now(), spans: Vec::new(), parent: None }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that encloses the ones recorded until [`Spans::close`].
    pub fn open(&mut self, name: &'static str, request: u64) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.parent,
            request,
        });
        self.parent = Some(id);
        id
    }

    pub fn close(&mut self, id: u32) {
        let end_ns = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        self.parent = span.parent;
    }

    /// Start of a leaf span; pass the value to [`Spans::end`].
    pub fn begin(&self) -> u64 {
        self.now()
    }

    pub fn end(&mut self, start_ns: u64, name: &'static str, request: u64) {
        let end_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns, parent: self.parent, request });
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_take_the_open_span_as_parent() {
        let mut spans = Spans::new();
        let sample = spans.open("sample", 0);
        let s = spans.begin();
        spans.end(s, "deliver", 7);
        spans.close(sample);
        let s = spans.begin();
        spans.end(s, "replay", 1);
        let all = spans.all();
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[1].request, 7);
        assert_eq!(all[2].parent, None);
        assert!(all[0].end_ns >= all[1].end_ns);
    }
}

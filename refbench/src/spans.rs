//! In-memory spans for the traced run, written out when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Spans around the benchmark's calls into each layer. Each span's parent
/// is the innermost span still open when it was opened.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span opened inside it and left open);
    /// returns its duration in µs.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id {
                break;
            }
        }
        now - self.spans[id].start_us
    }

    /// Runs `f` inside a span; returns its output and duration in µs.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, request);
        let out = f();
        (out, self.close(id))
    }

    /// Writes one JSON object per span per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \
                 \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_us, s.end_us, s.request
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_durations() {
        let mut s = Spans::default();
        let outer = s.open("outer", 7);
        let ((), inner_us) = s.time("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer_us = s.close(outer);
        assert!(inner_us >= 2000.0 && outer_us >= inner_us);
        assert_eq!(s.spans[1].parent, Some(outer));
        assert_eq!(s.spans[0].parent, None);
        assert!(s.spans.iter().all(|span| span.end_us >= span.start_us));
    }
}

//! Spans recorded by the benchmark around its calls into each layer:
//! request id, name, parent and start/end, kept in memory and written
//! out as JSON lines when the run ends.

use crate::json;
use std::io::Write as _;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, request: u64, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Close a span under a name only known once its work returned.
    pub fn end_as(&mut self, span: usize, name: &'static str) {
        self.end(span);
        self.spans[span].name = name;
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(request, name, parent);
        let out = f();
        self.end(span);
        out
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Total microseconds in spans called `name` of the given requests.
    pub fn total_us(&self, name: &str, requests: Range<u64>) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && requests.contains(&s.request))
            .fold(0.0, |total, s| total + s.duration_ns() as f64 / 1e3)
    }

    /// Write every span, with its self time, as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"request\":{},\"name\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.request,
                json::quote(s.name),
                s.start_ns,
                s.end_ns,
                self_ns[i]
            )?;
        }
        out.flush()
    }
}

/// Each span's duration minus the part of its interval its children
/// cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let parent = &spans[p];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            request: 0,
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 25, 50), // overlaps a by 5
            span("a.1", Some(1), 12, 20),
            span("late", Some(0), 90, 140), // runs past its parent
        ];
        let st = self_times(&spans);
        // root covers [10,50) and [90,100): 50 of its 100 ns.
        assert_eq!(st[0], 50);
        assert_eq!(st[1], 20 - 8);
        assert_eq!(st[2], 25);
        assert_eq!(st[3], 8);
        assert_eq!(st[4], 50);
    }

    #[test]
    fn tracer_nests_and_renames() {
        let mut t = Tracer::new();
        let root = t.begin(7, "root", None);
        let x = t.time(7, "child", Some(root), || 41 + 1);
        let probe = t.begin(7, "probe", Some(root));
        t.end_as(probe, "probe.exact");
        t.end(root);
        assert_eq!(x, 42);
        let names: Vec<&str> = t.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["root", "child", "probe.exact"]);
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.durations_us("child").len(), 1);
        let st = self_times(&t.spans);
        assert!(st[0] <= t.spans[0].duration_ns());
    }
}

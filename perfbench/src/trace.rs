//! Spans recorded by the benchmark around its calls into the library.
//!
//! A span has a name, a start, an end, its parent span and the run id. The
//! tracer keeps spans in memory; the run writes them out as JSON lines once
//! it has ended. Every span is opened and closed on the calling thread, so
//! the children of a span never overlap and its self time is its duration
//! minus the sum of theirs. With tracing off, [`Tracer::span`] only calls
//! its closure.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Tracer {
        Tracer {
            enabled,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span. `f` receives the tracer to open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Durations in seconds of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Per span name: (count, total seconds, self seconds), name-ordered.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_secs()) {
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += s.secs();
            e.2 += own;
        }
        out
    }

    /// For the spans named `name`: the median share of each one's interval
    /// that its child spans leave uncovered.
    pub fn uncovered_share(&self, name: &str) -> f64 {
        let own = self.self_secs();
        let shares: Vec<f64> = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name && s.end_ns > s.start_ns)
            .map(|(s, o)| o / s.secs())
            .collect();
        crate::stats::median(&shares)
    }

    /// Writes the spans as JSON lines:
    /// `{"run":…,"id":…,"name":…,"start_ns":…,"end_ns":…,"parent":…|null}`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, 7);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let own = t.self_secs();
        let children = spans[1].secs() + spans[2].secs();
        assert!((own[0] - (spans[0].secs() - children)).abs() < 1e-12);
        assert!(t.uncovered_share("outer") < 0.5);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"run\":7") && text.contains("\"parent\":null"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 1);
        assert_eq!(t.span("x", |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}

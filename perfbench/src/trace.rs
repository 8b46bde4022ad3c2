//! A std-only span recorder for the traced run.
//!
//! Spans are kept in memory: name, start, end, the span that caused it, and the request
//! (one query or one churn step) it belongs to. The per-layer figures are read out at the
//! end of the run. A layer's self time is its span's duration minus the part its direct
//! child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    request: u64,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    stack: Vec<usize>,
    requests: u64,
}

impl Tracer {
    /// Runs `f` under a new root span that opens a new request.
    pub fn request<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        assert!(self.stack.is_empty(), "requests do not nest");
        self.requests += 1;
        self.span(name, f)
    }

    /// Runs `f` under a span that is a child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span {
            name,
            request: self.requests,
            parent: self.stack.last().copied(),
            start: now,
            end: now,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end = Instant::now();
        out
    }

    fn duration_ms(span: &Span) -> f64 {
        span.end.duration_since(span.start).as_secs_f64() * 1e3
    }

    /// Total self time per span name, in ms.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                debug_assert_eq!(self.spans[parent].request, span.request);
                child_ms[parent] += Self::duration_ms(span);
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ms) {
            *out.entry(span.name).or_insert(0.0) += Self::duration_ms(span) - children;
        }
        out
    }

    /// Durations of every span with this name, in ms, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Self::duration_ms)
            .collect()
    }

    /// Number of requests recorded.
    pub fn requests(&self) -> u64 {
        self.requests
    }
}

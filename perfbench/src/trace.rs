//! In-memory spans recorded around calls into the program's layers.
//!
//! The benchmark calls each layer function itself, in the order the
//! program calls it, and wraps every call in a span: name, start, end
//! and the span that caused it. Spans stay in memory until the run
//! ends. Top-level spans (those without a parent) tile an operation;
//! their sum against the operation's untraced time gives the share the
//! spans do not cover.

use std::time::Instant;

/// One recorded span, in microseconds since the trace began.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// A span recorder.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// `false` runs every span body without recording it: the same
    /// call sequence, untraced, for measuring tracing overhead.
    enabled: bool,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }

    /// A recorder that records nothing.
    pub fn disabled() -> Trace {
        Trace {
            enabled: false,
            ..Trace::new()
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// Durations in µs of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .collect()
    }

    /// Summed duration in µs of every span named `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Summed duration in µs of the top-level spans recorded since span
    /// index `from` (see [`Trace::mark`]).
    pub fn top_level_us_since(&self, from: usize) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_us - s.start_us)
            .sum()
    }

    /// The current span count, to delimit one operation's spans.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }
}

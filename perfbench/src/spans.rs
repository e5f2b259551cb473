//! In-memory spans around the benchmark's calls into the library.
//!
//! A span records a name, start and end (nanoseconds since the tracer was
//! made), its parent span, and the workload and iteration it belongs to.
//! Spans are only kept in memory while the benchmark runs and are written
//! out once at exit. A disabled tracer records nothing, so the untraced
//! runs execute the same code with the recording switched off.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, such as `engine.step_until`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration of the traced run that recorded it.
    pub iteration: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle returned by [`Tracer::enter`], consumed by [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder for one workload.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    workload: &'static str,
    iteration: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            workload: "",
            iteration: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording tracer for `workload`.
    pub fn on(workload: &'static str) -> Tracer {
        Tracer {
            enabled: true,
            workload,
            ..Tracer::off()
        }
    }

    /// Tag the spans that follow with iteration `i`.
    pub fn set_iteration(&mut self, i: u32) {
        self.iteration = i;
    }

    /// Open a span; close it with [`Tracer::exit`]. Spans nest in
    /// enter/exit order.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            iteration: self.iteration,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans called `name` during iteration `i`.
    pub fn count(&self, name: &str, i: u32) -> usize {
        self.spans
            .iter()
            .filter(|s| s.iteration == i && s.name == name)
            .count()
    }

    /// Per span name: `(count, total seconds, self seconds)`, where self
    /// time is a span's duration minus the time its direct children
    /// cover (children never overlap: they nest on one thread).
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.secs();
            e.2 += (s.end_ns - s.start_ns).saturating_sub(children) as f64 * 1e-9;
        }
        out
    }

    /// The spans as JSON lines, followed by one summary line per span
    /// name with its count, total and self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"workload\":\"{}\",\"iteration\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name, self.workload, s.iteration, s.start_ns, s.end_ns, parent
            );
        }
        for (name, (count, total, self_s)) in self.self_times() {
            let _ = writeln!(
                out,
                "{{\"summary\":\"{name}\",\"workload\":\"{}\",\"count\":{count},\"total_s\":{total},\"self_s\":{self_s}}}",
                self.workload
            );
        }
        out
    }
}

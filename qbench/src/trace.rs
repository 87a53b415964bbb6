//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, one around each call
//! it makes into a layer. A span has a name, a start and an end (nanoseconds
//! since the recorder was created), the index of its parent span, and the id
//! of the call it belongs to: every span under one entry-point call (or one
//! standalone probe) shares that id. Spans stay in memory and are written
//! out once, when the run ends. A disabled recorder only runs the closures.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span wraps, e.g. `two_tournament.run`.
    pub name: &'static str,
    /// Id shared by all spans of one entry-point call or one probe.
    pub call: u64,
    /// Whether the span belongs to a standalone probe rather than to a
    /// workload's entry-point call.
    pub probe: bool,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Number of spans.
    pub count: usize,
    /// Duration of each span, in seconds.
    pub durations: Vec<f64>,
    /// Summed self time (duration minus what child spans cover), in seconds.
    pub self_secs: f64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_call: u64,
    call: u64,
    probe: bool,
}

impl Tracer {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_call: 0,
            call: 0,
            probe: false,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` as a new entry-point call: its spans, and the spans recorded
    /// after it until the next call or probe (such as its verification),
    /// share a fresh call id.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.root(name, false, f)
    }

    /// Runs `f` as a standalone probe: a fresh call id, marked as a probe so
    /// it is never read as part of an entry-point call.
    pub fn probe<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.root(name, true, f)
    }

    fn root<R>(&mut self, name: &'static str, probe: bool, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.next_call += 1;
        self.call = self.next_call;
        self.probe = probe;
        self.span(name, f)
    }

    /// Runs `f` inside a span named `name`, nested under the current span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            call: self.call,
            probe: self.probe,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Self time of every span: its duration minus the time its children
    /// cover. Children of one span run one after another on the calling
    /// thread, so the time they cover is the sum of their durations.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, &c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Per-name aggregates, in name order.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.durations.push(span.duration_ns() as f64 * 1e-9);
            entry.self_secs += self_ns as f64 * 1e-9;
        }
        out
    }

    /// All spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, (span, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"call\": {}, \"probe\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                span.name, span.call, span.probe, span.start_ns, span.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_share_call_ids_and_report_self_time() {
        let mut tr = Tracer::new(true);
        tr.call("outer", |tr| {
            tr.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("b", |_| ());
        });
        tr.span("verify", |_| ());
        tr.probe("p", |_| ());
        let spans = &tr.spans;
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert!(spans[..4].iter().all(|s| s.call == 1 && !s.probe));
        assert!(spans[4].call == 2 && spans[4].probe);
        let self_ns = tr.self_ns();
        assert_eq!(
            self_ns[0],
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );
        assert_eq!(tr.stats()["a"].count, 1);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.call("x", |tr| tr.span("y", |_| 7)), 7);
        assert!(tr.stats().is_empty());
    }
}

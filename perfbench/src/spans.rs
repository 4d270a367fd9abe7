//! In-memory spans recorded by the benchmark around the calls it makes into
//! each layer. Nothing here runs inside the program: a span brackets a
//! public call from the outside, or is rebuilt from timings the server
//! already reports. Spans are written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are microseconds since the recorder's epoch (the
/// first timed call); spans rebuilt from a load run use the run's start.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// Id of the span that caused this one.
    pub parent: u64,
    /// Shared by every span of one request or one measured call.
    pub req: u64,
    /// Layer-qualified name, e.g. `infer.b1` or `client.request`.
    pub name: String,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
}

/// Collects spans in memory.
#[derive(Default)]
pub struct Recorder {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    next_id: u64,
}

impl Recorder {
    /// Microseconds from the first timed call to `t`.
    fn us(&mut self, t: Instant) -> f64 {
        let epoch = *self.epoch.get_or_insert(t);
        t.saturating_duration_since(epoch).as_secs_f64() * 1e6
    }

    /// Records a closed span from explicit times (µs) and returns its id.
    pub fn record(&mut self, name: &str, parent: u64, req: u64, start_us: f64, end_us: f64) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        self.spans.push(Span {
            id,
            parent,
            req,
            name: name.to_string(),
            start_us,
            end_us,
        });
        id
    }

    /// Runs `f`, recording a span around it; returns its result and the
    /// call's wall time in µs.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let (s, e) = (self.us(t0), self.us(t1));
        self.record(name, parent, req, s, e);
        (out, e - s)
    }

    /// How many spans named `name` were recorded.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time of span `id`: its duration minus what its children cover.
    pub fn self_time_us(&self, id: u64) -> f64 {
        let Some(span) = self.spans.iter().find(|s| s.id == id) else {
            return 0.0;
        };
        let children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == id)
            .map(|s| (s.start_us, s.end_us))
            .collect();
        crate::stats::self_time(span.start_us, span.end_us, &children)
    }

    /// Renders every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id, s.parent, s.req, s.name, s.start_us, s.end_us
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_call_returns_its_value() {
        let mut r = Recorder::default();
        let (v, us) = r.time("x", 0, 1, || 7);
        assert_eq!(v, 7);
        assert!(us >= 0.0);
        assert_eq!(r.to_jsonl().lines().count(), 1);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::default();
        let root = r.record("root", 0, 1, 0.0, 10.0);
        r.record("a", root, 1, 1.0, 4.0);
        r.record("b", root, 1, 6.0, 7.0);
        assert!((r.self_time_us(root) - 6.0).abs() < 1e-9);
        assert!(r.to_jsonl().lines().count() == 3);
    }
}

//! Spans recorded by the benchmark's own code around each call into a
//! layer: `{name, start, end, parent, request id}`, kept in memory and
//! written out as JSON lines when the workload ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `nucleus.peel.truss`.
    pub name: &'static str,
    /// Start, µs since the trace origin.
    pub start_us: f64,
    /// End, µs since the trace origin.
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one request (or repetition).
    pub request: u64,
}

/// In-memory span sink. Disabled, every call is a branch and a return.
pub struct Trace {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Trace {
    /// A sink that records when `enabled`.
    pub fn new(enabled: bool) -> Trace {
        Trace { origin: Instant::now(), enabled, spans: Vec::new() }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (the overhead probe records one half
    /// of a phase and not the other).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records an interval given as instants; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span { name, start_us: us(start), end_us: us(end), parent, request });
        Some(self.spans.len() - 1)
    }

    /// Opens a span that will enclose others; [`Trace::end`] closes it.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    /// Closes a span opened by [`Trace::begin`].
    pub fn end(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        }
    }

    /// Times `f` and records it as a span; returns its result and seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, request);
        (out, (end - start).as_secs_f64())
    }

    /// Self time per span name: duration minus the part covered by child
    /// spans, summed over spans, in ms. Names in first-seen order.
    pub fn self_times_ms(&self) -> Vec<(&'static str, f64)> {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_us - s.start_us;
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(covered) {
            let own = (s.end_us - s.start_us - c).max(0.0) / 1e3;
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, total)) => *total += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    /// Writes the workload's trace file under the run's output directory
    /// and returns the report line that says where it is.
    pub fn write_for(&self, run: &crate::Run, workload: &str) -> Result<String, String> {
        let suffix = if run.quick { ".quick.jsonl" } else { ".jsonl" };
        let path = run.out_dir.join(format!("trace-{workload}{suffix}"));
        self.write_jsonl(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(format!("trace: {} spans in {}", self.spans.len(), path.display()))
    }

    /// Writes one JSON object per span.
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            // Spans that belong to no single request carry `u64::MAX`.
            let request =
                if s.request == u64::MAX { "null".to_string() } else { s.request.to_string() };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\
                 \"parent\":{parent},\"request\":{request}}}",
                s.name, s.start_us, s.end_us
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut t = Trace::new(true);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = t.record("rep", at(0), at(10), None, 1);
        t.record("peel", at(1), at(4), root, 1);
        t.record("peel", at(5), at(7), root, 1);
        let own = t.self_times_ms();
        assert_eq!(own[0].0, "rep");
        assert!((own[0].1 - 5.0).abs() < 1e-6 && (own[1].1 - 5.0).abs() < 1e-6, "{own:?}");
        t.set_enabled(false);
        assert_eq!(t.record("x", at(0), at(1), None, 2), None);
        assert_eq!(t.spans.len(), 3);
    }
}

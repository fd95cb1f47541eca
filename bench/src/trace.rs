//! Spans around the calls into each layer, recorded from outside the
//! crates: `{name, start, end, parent, op id}`, kept in memory and
//! written as a Chrome-trace file when the run ends.
//!
//! Everything here runs on the one driving thread, so spans nest
//! strictly: a span's parent is whatever span was open when it began,
//! and a layer's self time is its span minus its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{
    Duration,
    Instant, //
};

/// Ops of a traced window that make it into the trace file. The
/// metrics use every span; the file only needs enough ops to look at.
const OPS_IN_FILE: u64 = 64;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Id of the op this span belongs to; shared by all of its spans.
    pub op: u64,
    /// Calls into the layer that this span covers (1 unless the span
    /// wraps a loop of identical calls).
    pub calls: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// All spans recorded from here on carry this op id.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span that later spans nest under, until [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            calls: 1,
        });
        self.open.push(id);
        // Read the clock last, so the bookkeeping above is not inside
        // the span.
        self.spans[id].start_ns = self.epoch.elapsed().as_nanos() as u64;
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) -> Duration {
        let now = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = now;
        Duration::from_nanos(self.spans[id].nanos())
    }

    /// One call into a layer.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_n(name, 1, f)
    }

    /// A loop of `calls` identical calls into a layer, as one span.
    pub fn span_n<R>(&mut self, name: &'static str, calls: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        self.spans[id].calls = calls;
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median over the spans called `name` of nanoseconds per call.
    pub fn per_call_ns(&self, name: &str) -> Option<f64> {
        median(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.nanos() as f64 / s.calls as f64)
                .collect(),
        )
    }

    /// Median over ops of the nanoseconds the op spent in spans called
    /// `name` (an op that calls a layer once per machine sums them).
    pub fn per_op_ns(&self, name: &str) -> Option<f64> {
        let mut per_op: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per_op.entry(s.op).or_default() += s.nanos();
        }
        median(per_op.into_values().map(|ns| ns as f64).collect())
    }

    /// Writes the spans as Chrome-trace "complete" events (`ph: X`,
    /// microsecond timestamps): load the file in `chrome://tracing` or
    /// <https://ui.perfetto.dev>. Spans of ops past the first
    /// [`OPS_IN_FILE`] of each root name are left out to bound the file.
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut kept_ops: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            let mut root = s;
            while let Some(p) = root.parent {
                root = &self.spans[p];
            }
            let ops = kept_ops.entry(root.name).or_default();
            if !ops.contains(&s.op) {
                if ops.len() as u64 >= OPS_IN_FILE {
                    continue;
                }
                ops.push(s.op);
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s.parent.map_or("", |p| self.spans[p].name);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":\"{}\",\
                 \"calls\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.nanos() as f64 / 1e3,
                s.op,
                parent,
                s.calls,
                self_ns[i] as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::nanos).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.nanos());
        }
    }
    own
}

/// For the spans called `root`: the share of a root span that its
/// direct children cover (1.0 = the children account for all of it), as
/// `(median, smallest)` over the root spans.
pub fn child_coverage(spans: &[Span], root: &str) -> Option<(f64, f64)> {
    let self_ns = self_times(spans);
    let shares: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == root && s.nanos() > 0)
        .map(|(i, s)| 1.0 - self_ns[i] as f64 / s.nanos() as f64)
        .collect();
    let smallest = shares.iter().copied().min_by(|a, b| a.total_cmp(b))?;
    Some((median(shares)?, smallest))
}

pub fn median(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span("op", 0, 1_000, None, 0),
            span("a", 100, 400, Some(0), 0),
            span("a.inner", 150, 250, Some(1), 0),
            span("b", 400, 950, Some(0), 0),
        ];
        // op: 1000 - 300 - 550; a: 300 - 100; leaves keep their duration.
        assert_eq!(self_times(&spans), vec![150, 200, 100, 550]);
        let (median, smallest) = child_coverage(&spans, "op").unwrap();
        assert!((median - 0.85).abs() < 1e-12 && median == smallest);
    }

    #[test]
    fn tracer_nests_and_aggregates() {
        let mut tr = Tracer::new();
        for op in 0..3 {
            tr.set_op(op);
            let id = tr.begin("op");
            tr.span("stage", || std::hint::black_box(1 + 1));
            tr.span("stage", || std::hint::black_box(2 + 2));
            tr.span_n("loop", 10, || ());
            tr.end(id);
        }
        let spans = tr.spans();
        assert_eq!(spans.len(), 12);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[5].parent, Some(4));
        assert_eq!(spans[5].op, 1);
        assert_eq!(spans[3].calls, 10);
        for s in spans.iter().filter(|s| s.parent.is_some()) {
            let p = &spans[s.parent.unwrap()];
            assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
        }
        // Two `stage` spans per op are summed per op, not per call.
        let per_op = tr.per_op_ns("stage").unwrap();
        let per_call = tr.per_call_ns("stage").unwrap();
        assert!(per_op >= per_call);
        assert!(tr.per_call_ns("missing").is_none());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(vec![]), None);
    }
}

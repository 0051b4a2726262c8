//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the trace
//! began), the span that caused it, and a request id. Spans stay in
//! memory and are written out as JSON lines when the run ends. A span's
//! self time is its duration minus the part of it its children cover.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use lintra_bench::json::Json;

/// Index of an open or closed span; `None` when tracing is off.
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    req: u64,
}

/// An in-memory span recorder. A disabled trace records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn open(&self, name: &str, parent: SpanId, req: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span lock");
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Trace::open`].
    pub fn close(&self, id: SpanId) {
        if let Some(i) = id {
            let end_ns = self.now_ns();
            self.spans.lock().expect("span lock")[i].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span; `f` gets the span's id to parent children.
    pub fn span<R>(&self, name: &str, parent: SpanId, req: u64, f: impl FnOnce(SpanId) -> R) -> R {
        let id = self.open(name, parent, req);
        let out = f(id);
        self.close(id);
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span lock").len()
    }

    /// Sum of the durations of the direct children of `parent` whose
    /// name starts with `prefix`, in milliseconds.
    pub fn children_ms(&self, parent: SpanId, prefix: &str) -> f64 {
        let spans = self.spans.lock().expect("span lock");
        spans
            .iter()
            .filter(|s| s.parent.is_some() && s.parent == parent && s.name.starts_with(prefix))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Self time of every span: its duration minus the union of the
    /// intervals its children cover, in nanoseconds.
    fn self_ns(spans: &[Span]) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .zip(kids)
            .map(|(s, mut iv)| {
                iv.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in iv {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Writes every span, with its self time, as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span lock");
        let selfs = Trace::self_ns(&spans);
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
            let doc = Json::obj([
                ("id", Json::Num(i as f64)),
                ("name", Json::Str(s.name.clone())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(self_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("req", Json::Num(s.req as f64)),
            ]);
            writeln!(out, "{}", doc.render_compact())?;
        }
        out.flush()
    }

    /// Measured cost of recording one span, in seconds: the median over
    /// a few batches of open+close pairs on a scratch trace.
    pub fn span_cost_s() -> f64 {
        let probe = Trace::new(true);
        let mut per = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            for k in 0..2000 {
                let id = probe.open("calibrate", None, k);
                probe.close(id);
            }
            per.push(t.elapsed().as_secs_f64() / 2000.0);
        }
        crate::stats::median(&per)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |start_ns, end_ns, parent| Span {
            name: String::new(),
            start_ns,
            end_ns,
            parent,
            req: 0,
        };
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 50, Some(0)),
            span(60, 70, Some(0)),
            span(12, 20, Some(1)),
        ];
        let selfs = Trace::self_ns(&spans);
        assert_eq!(selfs[0], 100 - 40 - 10, "overlapping children count once");
        assert_eq!(selfs[1], 30 - 8);
        assert_eq!(selfs[3], 10);
    }

    #[test]
    fn a_disabled_trace_records_nothing() {
        let t = Trace::new(false);
        let v = t.span("x", None, 0, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!((v, t.len()), (7, 0));
    }
}

//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer:
//! a name, start, end, the span that caused it, and — for serve requests
//! — the request id every span of that request shares. Nothing is written
//! until the run ends. A disabled tracer records nothing, so untraced runs
//! pay one branch per call site.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: Option<u64>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { origin: Instant::now(), spans: enabled.then(|| Mutex::new(Vec::new())) }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, span: Span) -> Option<SpanId> {
        let spans = self.spans.as_ref()?;
        let mut spans = spans.lock().expect("span store poisoned");
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Open a span now; its end is set by [`Tracer::close`].
    pub fn open(&self, name: &str, parent: Option<SpanId>) -> Option<SpanId> {
        self.spans.as_ref()?;
        let now = self.ns(Instant::now());
        self.push(Span { name: name.into(), start_ns: now, end_ns: now, parent, request: None })
    }

    pub fn close(&self, id: Option<SpanId>) {
        let (Some(spans), Some(id)) = (self.spans.as_ref(), id) else { return };
        let now = self.ns(Instant::now());
        spans.lock().expect("span store poisoned")[id].end_ns = now;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Record an interval measured elsewhere.
    pub fn record(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        self.spans.as_ref()?;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span { name: name.into(), start_ns, end_ns, parent, request })
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| s.lock().expect("span store poisoned").clone())
            .unwrap_or_default()
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans().iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Write every span, one JSON object a line, followed by `annotations`
    /// (already-formatted JSON objects) that are not spans.
    pub fn write(&self, path: &std::path::Path, annotations: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            )?;
        }
        for a in annotations {
            writeln!(out, "{a}")?;
        }
        out.flush()
    }
}

/// Check the span-tree invariants: every parent is recorded before its
/// child, a child lies within its parent, and a request's spans share the
/// request id of the span that caused them.
pub fn check_tree(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        let Some(p) = s.parent else { continue };
        let Some(parent) = spans.get(p).filter(|_| p < i) else {
            return Err(format!("span {i} ({}) names parent {p}, not recorded before it", s.name));
        };
        if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
            return Err(format!(
                "span {i} ({}) lies outside its parent {p} ({})",
                s.name, parent.name
            ));
        }
        if parent.request.is_some() && s.request != parent.request {
            return Err(format!("span {i} ({}) has another request id than its parent", s.name));
        }
    }
    Ok(())
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its children cover.
pub fn self_time_ns(spans: &[Span], children: &[SpanId], id: SpanId) -> u64 {
    let mut iv: Vec<(u64, u64)> =
        children.iter().map(|c| (spans[*c].start_ns, spans[*c].end_ns)).collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    let s = &spans[id];
    (s.end_ns - s.start_ns).saturating_sub(covered)
}

/// Children of every span, by parent index.
pub fn children(spans: &[Span]) -> Vec<Vec<SpanId>> {
    let mut out = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            out[p].push(i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &str, start: u64, end: u64, parent: Option<SpanId>, req: Option<u64>) -> Span {
        Span { name: name.into(), start_ns: start, end_ns: end, parent, request: req }
    }

    #[test]
    fn nested_timing_satisfies_the_tree_invariants() {
        let t = Tracer::new(true);
        let root = t.open("root", None);
        t.time("child", root, || {
            let inner = t.open("grandchild", None);
            std::thread::sleep(Duration::from_millis(1));
            t.close(inner);
        });
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        check_tree(&spans).expect("well-formed tree");
        assert!(spans[0].secs() >= spans[1].secs());
    }

    #[test]
    fn a_child_outside_its_parent_is_rejected() {
        let spans = vec![span("root", 10, 20, None, None), span("child", 15, 25, Some(0), None)];
        assert!(check_tree(&spans).unwrap_err().contains("outside its parent"));
        let spans = vec![span("root", 10, 20, None, None), span("child", 5, 15, Some(0), None)];
        assert!(check_tree(&spans).is_err());
    }

    #[test]
    fn a_parent_must_be_recorded_first() {
        let spans = vec![span("child", 15, 16, Some(1), None), span("root", 10, 20, None, None)];
        assert!(check_tree(&spans).is_err());
    }

    #[test]
    fn request_spans_share_one_id() {
        let ok = vec![
            span("request", 0, 100, None, Some(7)),
            span("queue", 0, 10, Some(0), Some(7)),
            span("search", 10, 50, Some(0), Some(7)),
        ];
        check_tree(&ok).expect("shared id");
        let mut bad = ok.clone();
        bad[2].request = Some(8);
        assert!(check_tree(&bad).unwrap_err().contains("request id"));
        bad[2].request = None;
        assert!(check_tree(&bad).is_err());
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span("request", 0, 100, None, Some(1)),
            span("queue", 0, 10, Some(0), Some(1)),
            span("encode", 10, 30, Some(0), Some(1)),
            span("search", 25, 60, Some(0), Some(1)),
        ];
        let kids = children(&spans);
        assert_eq!(kids[0], vec![1, 2, 3]);
        assert_eq!(self_time_ns(&spans, &kids[0], 0), 40);
        assert_eq!(self_time_ns(&spans, &kids[1], 1), 10);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.open("root", None);
        assert_eq!(id, None);
        t.close(id);
        assert_eq!(t.time("x", None, || 3), 3);
        assert!(t.record("y", Instant::now(), Instant::now(), None, Some(1)).is_none());
        assert!(t.spans().is_empty());
    }
}

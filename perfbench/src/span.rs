//! The traced run's span recorder. Spans are recorded by the benchmark
//! around its own calls into each layer, kept in memory, and written out as
//! JSON lines when the run ends.
//!
//! A span's self time is its duration minus the durations of its child
//! spans (children are nested in, and disjoint within, their parent).

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Unique id (nonzero).
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// The request (or query, or record) the span belongs to; every span
    /// of one request shares it.
    pub req: u64,
    /// Layer boundary name, e.g. `nn.forward`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A thread-safe in-memory span sink.
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Reserve a span id (for a parent whose children close first).
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a span with a reserved id.
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        dur: Duration,
    ) {
        let rec = SpanRec {
            id,
            parent,
            req,
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        };
        self.spans.lock().expect("span sink poisoned").push(rec);
    }

    /// Record a span measured elsewhere (e.g. a server-side stage reported
    /// on the response) and return its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        dur: Duration,
    ) -> u64 {
        let id = self.id();
        self.record_as(id, name, parent, req, start, dur);
        id
    }

    /// Time `f` as span `name`; `f` receives the span's id so it can open
    /// children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        self.record_as(id, name, parent, req, start, start.elapsed());
        out
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span sink poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    }

    /// Self times of every span called `name`, in microseconds.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span sink poisoned");
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.dur_ns;
        }
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let children = child_ns.get(&s.id).copied().unwrap_or(0);
                s.dur_ns.saturating_sub(children) as f64 / 1e3
            })
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span sink poisoned").len()
    }

    /// True when no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self.spans.lock().expect("span sink poisoned");
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::default();
        let now = Instant::now();
        let root = t.id();
        t.record("child", root, 7, now, Duration::from_micros(30));
        t.record("child", root, 7, now, Duration::from_micros(20));
        t.record_as(root, "root", 0, 7, now, Duration::from_micros(100));
        assert_eq!(t.self_times_us("root"), vec![50.0]);
        assert_eq!(t.self_times_us("child"), vec![30.0, 20.0]);
        assert_eq!(t.durations_us("root"), vec![100.0]);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let t = Tracer::default();
        t.span("outer", 0, 3, |outer| {
            t.span("inner", outer, 3, |_| std::hint::black_box(1 + 1));
        });
        let spans = t.spans.lock().unwrap().clone();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.req, outer.req);
        assert!(inner.dur_ns <= outer.dur_ns);
    }
}

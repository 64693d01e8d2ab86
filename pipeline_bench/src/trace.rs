//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only in this benchmark's own code, around each call
//! into a workspace crate. A span carries a layer-qualified name
//! (`embed.search`, `storage.execute`, ...), its start and end, the span
//! that caused it, and the id of the item (log entry, statement, ...) it
//! belongs to. When a crate is reachable only through a bp-core call such
//! as `Project::annotate`, the traced run replays that call's layer steps
//! and records the replay spans as children of the real call's span, so
//! the real call's self time is its duration minus the replayed layers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub item: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// A single-threaded span recorder. Each thread keeps its own and the
/// recorders are merged after the threads join.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    item: u64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::with_capacity(1 << 16),
            item: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Set the item id stamped on spans opened from now on.
    pub fn set_item(&mut self, item: u64) {
        self.item = item;
    }

    /// Open a span under `parent`.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            item: self.item,
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans[id.0].end_ns = end_ns;
    }

    /// Time `f` as a span under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id.0].name = name;
    }

    /// Move another thread's spans into this recorder.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Durations in microseconds of every span with this name.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// (item, duration in microseconds) of every span with this name.
    pub fn durations_by_item(&self, name: &str) -> Vec<(u64, f64)> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.item, s.dur_ns() as f64 / 1e3))
            .collect()
    }

    /// Sum of the durations of the direct children of each span, by index.
    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        child
    }

    /// Self time of each span: its duration minus what its children cover.
    /// Children of one parent run one after another, so the covered part
    /// is the sum of their durations.
    pub fn self_ns(&self) -> Vec<i64> {
        let child = self.child_ns();
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns() as i64 - c as i64)
            .collect()
    }

    /// Per-layer total self time in milliseconds.
    pub fn layer_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.layer()).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// For every span with this name: (its duration, the sum of its direct
    /// children's durations), both in microseconds.
    pub fn with_children_us(&self, name: &str) -> Vec<(f64, f64)> {
        let child = self.child_ns();
        self.spans
            .iter()
            .zip(child)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.dur_ns() as f64 / 1e3, c as f64 / 1e3))
            .collect()
    }

    /// All spans as tab-separated lines: id, parent, item, name, start, end.
    pub fn render_tsv(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 48);
        out.push_str("id\tparent\titem\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.item, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

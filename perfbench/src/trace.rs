//! In-memory span recording for the traced run.
//!
//! Spans wrap calls into the program's public functions from outside; the
//! program itself is never instrumented. Each span has a name, start, end,
//! parent span and op id. A layer's per-op time is its spans' *self* time:
//! duration minus the time covered by child spans. Spans stay in memory
//! and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Name of the root span around one op as the user sees it. Its self
/// time is op time no layer span covers (`trace.unattributed_ms`).
pub const OP: &str = "op";

/// Name of the root span around the in-process replay of work that ran
/// inside the server during an op. Replays are not op time.
pub const REPLAY: &str = "replay";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `netlist.flatten`.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Start and end, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    fn dur_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle to an open span; close it with [`Tracer::exit`].
#[must_use = "an entered span must be exited"]
pub struct Open(usize);

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch` (shared by every
    /// thread of one run, so merged spans share one time base).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts attributing spans to op `op`.
    pub fn set_op(&mut self, op: u64) {
        assert!(self.stack.is_empty(), "op changed inside an open span");
        self.op = op;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes the innermost open span, which must be `open`.
    pub fn exit(&mut self, open: Open) {
        assert_eq!(
            self.stack.pop(),
            Some(open.0),
            "spans must close in LIFO order"
        );
        self.spans[open.0].end_ns = self.now_ns();
    }

    /// Records `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// The recorded spans; every span must be closed.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "tracer dropped with open spans");
        self.spans
    }
}

/// Per-op self time of every layer, in ms: `result[name][op]`.
pub fn self_ms_by_op(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
    let mut child_ms = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ms[p] += s.dur_ms();
        }
    }
    let mut out: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_ms) {
        *out.entry(s.name).or_default().entry(s.op).or_default() += s.dur_ms() - child;
    }
    out
}

/// Total (not self) duration of each op's `OP` root span, in ms.
pub fn op_ms(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == OP && s.parent.is_none())
        .map(Span::dur_ms)
        .collect()
}

/// Writes spans as NDJSON, one object per line, with parent links
/// rewritten to indices in the written order.
pub fn write_ndjson(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.name, s.op, s.start_ns, s.end_ns
        ));
    }
    let mut f =
        std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    f.write_all(out.as_bytes())
        .and_then(|()| f.flush())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Concatenates per-thread span lists, shifting parent indices so they
/// stay valid in the merged list.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for part in parts {
        let base = out.len();
        out.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u64, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op,
            parent,
            start_ns: start * 1_000_000,
            end_ns: end * 1_000_000,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(OP, 1, None, 0, 10),
            span("a", 1, Some(0), 1, 4),
            span("b", 1, Some(0), 4, 9),
            span("c", 1, Some(2), 5, 6),
        ];
        let by = self_ms_by_op(&spans);
        assert_eq!(by[OP][&1], 2.0);
        assert_eq!(by["a"][&1], 3.0);
        assert_eq!(by["b"][&1], 4.0);
        assert_eq!(by["c"][&1], 1.0);
        assert_eq!(op_ms(&spans), vec![10.0]);
    }

    #[test]
    fn tracer_nests_and_merge_keeps_parents() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        t.set_op(3);
        let root = t.enter(OP);
        t.time("leaf", || ());
        t.exit(root);
        let a = t.into_spans();
        assert_eq!(a[1].parent, Some(0));
        let merged = merge(vec![a.clone(), a]);
        assert_eq!(merged[3].parent, Some(2));
        assert!(merged.iter().all(|s| s.op == 3 && s.end_ns >= s.start_ns));
    }
}

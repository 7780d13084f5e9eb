//! The benchmark's span recorder.
//!
//! Spans are recorded by the benchmark's own wrappers around calls into the
//! program's public functions; nothing inside the program is instrumented.
//! Each span holds a name, a start, an end and its parent, and every span of
//! one operation carries the operation's id. Spans are kept in memory and
//! written out when the run ends. A disabled tracer runs the wrapped calls
//! and reads no clock.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Id of the operation this span belongs to.
    pub op: u64,
    /// Id of this span (unique in the run, never 0).
    pub id: u64,
    /// Id of the enclosing span; 0 for an operation's root span.
    pub parent: u64,
    /// Layer name.
    pub name: &'static str,
    /// Start, in nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the epoch.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where a new span hangs: the operation and the enclosing span.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    op: u64,
    span: u64,
}

/// The in-memory span store of one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// True when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` as the root span of operation `op`.
    pub fn root<T>(&self, op: u64, name: &'static str, f: impl FnOnce(Ctx) -> T) -> T {
        self.record(Ctx { op, span: 0 }, name, f)
    }

    /// Runs `f` as a span named `name` under `ctx`.
    pub fn child<T>(&self, ctx: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> T) -> T {
        self.record(ctx, name, f)
    }

    fn record<T>(&self, ctx: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> T) -> T {
        if !self.enabled {
            return f(ctx);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let out = f(Ctx {
            op: ctx.op,
            span: id,
        });
        let end = self.epoch.elapsed();
        self.spans
            .lock()
            .expect("no span writer panics")
            .push(Span {
                op: ctx.op,
                id,
                parent: ctx.span,
                name,
                start_ns: start.as_nanos() as u64,
                end_ns: end.as_nanos() as u64,
            });
        out
    }

    /// The recorded spans, in order of their ends.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span writer panics").clone()
    }
}

/// Calls, total and self time of one layer over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Layer (span) name.
    pub name: &'static str,
    /// Spans recorded.
    pub calls: u64,
    /// Summed span durations, in seconds (busy time across threads).
    pub total_s: f64,
    /// Summed self time: each span's duration minus the part of its interval
    /// its child spans cover, in seconds.
    pub self_s: f64,
}

/// The per-layer summary of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// One row per layer, by name.
    pub layers: Vec<LayerRow>,
    /// Wall seconds of each operation's root span.
    pub op_walls_s: Vec<f64>,
    /// For each operation, the share of its root span's interval covered
    /// by the root's child spans.
    pub coverage: Vec<f64>,
}

impl Summary {
    /// Total seconds of the layer named `name`, 0 when it never ran.
    pub fn total_s(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.total_s)
    }

    /// Calls of the layer named `name`, 0 when it never ran.
    pub fn calls(&self, name: &str) -> u64 {
        self.layers
            .iter()
            .find(|r| r.name == name)
            .map_or(0, |r| r.calls)
    }

    /// The summary as a printable table.
    pub fn table(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace summary: {workload}, {} operations",
            self.op_walls_s.len()
        );
        let _ = writeln!(
            out,
            "  {:<10} {:>9} {:>12} {:>12}",
            "layer", "calls", "total_s", "self_s"
        );
        for r in &self.layers {
            let _ = writeln!(
                out,
                "  {:<10} {:>9} {:>12.6} {:>12.6}",
                r.name, r.calls, r.total_s, r.self_s
            );
        }
        let cov = |q: f64| crate::stats::percentile(&self.coverage, q);
        let _ = writeln!(
            out,
            "  span coverage of operation wall: min {:.4}, median {:.4}",
            cov(0.0),
            cov(50.0)
        );
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Summarises `spans` per layer and per operation.
pub fn summarize(spans: &[Span]) -> Summary {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    let mut op_walls_s = Vec::new();
    let mut coverage = Vec::new();
    for s in spans {
        let inner = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(c.clone(), s.start_ns, s.end_ns));
        let row = rows.entry(s.name).or_insert(LayerRow {
            name: s.name,
            calls: 0,
            total_s: 0.0,
            self_s: 0.0,
        });
        row.calls += 1;
        row.total_s += s.duration_ns() as f64 * 1e-9;
        row.self_s += (s.duration_ns() - inner) as f64 * 1e-9;
        if s.parent == 0 {
            op_walls_s.push(s.duration_ns() as f64 * 1e-9);
            coverage.push(if s.duration_ns() == 0 {
                1.0
            } else {
                inner as f64 / s.duration_ns() as f64
            });
        }
    }
    Summary {
        layers: rows.into_values().collect(),
        op_walls_s,
        coverage,
    }
}

/// Writes spans as JSON lines.
pub fn write_jsonl(spans: &[Span], mut out: impl std::io::Write) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            op,
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with overlapping children 10..40 and 30..60 (parallel
        // work) and a child 90..120 that outlives the root.
        let spans = vec![
            span(1, 1, 0, "op", 0, 100),
            span(1, 2, 1, "explore", 10, 40),
            span(1, 3, 1, "explore", 30, 60),
            span(1, 4, 1, "lower", 90, 120),
        ];
        let s = summarize(&spans);
        let op = s.layers.iter().find(|r| r.name == "op").unwrap();
        // Covered: 10..60 and 90..100 = 60 ns.
        assert!((op.self_s - 40e-9).abs() < 1e-15);
        assert_eq!(s.coverage, vec![0.6]);
        assert_eq!(s.calls("explore"), 2);
        assert!((s.total_s("explore") - 60e-9).abs() < 1e-15);
        assert_eq!(s.total_s("verify"), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.root(7, "op", |ctx| t.child(ctx, "inner", |_| 5));
        assert_eq!(v, 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_children_to_their_root() {
        let t = Tracer::new(true);
        t.root(3, "op", |ctx| t.child(ctx, "inner", |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "op").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!((root.parent, inner.parent, inner.op), (0, root.id, 3));
        let mut out = Vec::new();
        write_jsonl(&spans, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 2);
    }
}

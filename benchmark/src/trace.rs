//! The traced pass's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around the calls
//! into each layer's public functions; nothing inside the measured
//! crates is touched. They are kept in memory and written out once, at
//! exit, as Chrome `trace_event` JSON next to a per-layer self-time
//! table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call (or batch of same-layer calls) into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the run; 0 is "no span".
    pub id: u32,
    /// The span that caused this one (0 = root).
    pub parent: u32,
    /// `<layer>.<operation>`, the layer being the module path measured.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The horizon index or incident number the work belongs to.
    pub item: u64,
    /// Events (or records) the call covered.
    pub count: u64,
    /// The recording thread's label, for the timeline view.
    pub thread: u32,
}

/// Collects spans from every thread of the traced pass.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent has ended.
    pub fn reserve(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Builds a span that ends now. Threads batch these locally and hand
    /// them over with [`extend`](Self::extend).
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        id: u32,
        parent: u32,
        name: &'static str,
        start: Instant,
        item: u64,
        count: u64,
        thread: u32,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(Instant::now()),
            item,
            count,
            thread,
        }
    }

    /// Records one finished span directly.
    pub fn record(
        &self,
        parent: u32,
        name: &'static str,
        start: Instant,
        item: u64,
        count: u64,
    ) -> u32 {
        let id = self.reserve();
        let span = self.span(id, parent, name, start, item, count, 0);
        self.extend(vec![span]);
        id
    }

    /// Hands a thread's locally buffered spans over.
    pub fn extend(&self, spans: Vec<Span>) {
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .extend(spans);
    }

    /// Everything recorded so far, in start order.
    pub fn finish(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Per-name totals over a span set.
#[derive(Clone, Debug, Default)]
pub struct LayerRow {
    pub calls: u64,
    pub items: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by direct child spans.
    pub self_ns: u64,
}

/// Self time per span name: a span's duration minus the part of it its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let row = rows.entry(s.name).or_default();
        row.calls += 1;
        row.items += s.count;
        row.total_ns += dur;
        row.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    rows
}

/// Renders the self-time table as aligned text.
pub fn render_table(rows: &BTreeMap<&'static str, LayerRow>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<44} {:>8} {:>10} {:>12} {:>12} {:>12}",
        "span", "calls", "items", "total_ms", "self_ms", "self_ns/item"
    );
    for (name, r) in rows {
        let _ = writeln!(
            out,
            "{:<44} {:>8} {:>10} {:>12.3} {:>12.3} {:>12.1}",
            name,
            r.calls,
            r.items,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            r.self_ns as f64 / r.items.max(1) as f64,
        );
    }
    out
}

/// Renders spans as Chrome `trace_event` JSON (complete events), loadable
/// in Perfetto or `chrome://tracing`. The category is the layer (the
/// name up to its last dot).
pub fn render_chrome(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let layer = s.name.rsplit_once('.').map_or(s.name, |(l, _)| l);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"id\":{},\"parent\":{},\"item\":{},\"count\":{}}}}}",
            s.name,
            layer,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.thread,
            s.id,
            s.parent,
            s.item,
            s.count,
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mk = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            item: 0,
            count: 1,
            thread: 0,
        };
        let spans = vec![
            mk(1, 0, "a.outer", 0, 100),
            mk(2, 1, "a.mid", 10, 60),
            mk(3, 2, "a.inner", 20, 30),
        ];
        let rows = self_times(&spans);
        assert_eq!(rows["a.outer"].self_ns, 50);
        assert_eq!(rows["a.mid"].self_ns, 40);
        assert_eq!(rows["a.inner"].self_ns, 10);
        let json = render_chrome(&spans);
        assert!(json.contains("\"cat\":\"a\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    }
}

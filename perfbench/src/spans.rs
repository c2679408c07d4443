//! Host-time spans recorded around the benchmark's calls into each layer.
//!
//! A span is a name, a start, an end (nanoseconds since the tracer was
//! created), the span that caused it and the OS thread it ran on. Spans
//! are kept in memory and written out once, at the end of a run, in the
//! Chrome `trace_event` shape `fw-trace` emits (loadable in Perfetto).
//! With tracing off, [`Tracer::span`] only times the call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; [`NO_PARENT`] marks a root.
pub type SpanId = u64;

/// Parent of a root span.
pub const NO_PARENT: SpanId = 0;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (never [`NO_PARENT`]).
    pub id: SpanId,
    /// The span that made this call, or [`NO_PARENT`].
    pub parent: SpanId,
    /// `layer.call`, e.g. `fw-graph.generate`.
    pub name: &'static str,
    /// Small per-thread number, stable within a process.
    pub tid: u32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    t0: Instant,
    on: bool,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn thread_tid() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static TID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

impl Tracer {
    /// A tracer that records spans when `on`, and only times calls
    /// otherwise.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            t0: Instant::now(),
            on,
            next: AtomicU64::new(NO_PARENT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` as a span named `name` under `parent`. `f` receives the
    /// new span's id to pass to its own children. Returns `f`'s result
    /// and the call's wall time in seconds.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, f64) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let r = f(id);
        let end = Instant::now();
        if self.on {
            let span = Span {
                id,
                parent,
                name,
                tid: thread_tid(),
                start_ns: start.duration_since(self.t0).as_nanos() as u64,
                end_ns: end.duration_since(self.t0).as_nanos() as u64,
            };
            self.spans
                .lock()
                .expect("span list poisoned by a panicking worker")
                .push(span);
        }
        (r, end.duration_since(start).as_secs_f64())
    }

    /// Remove and return every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span list poisoned by a panicking worker"),
        )
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children running in parallel on pool
/// workers are merged, not summed. Index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).cloned().unwrap_or_default();
            s.dur_ns() - covered_ns(kids, s.start_ns, s.end_ns)
        })
        .collect()
}

/// Per span name: calls, total ns and self ns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Σ durations.
    pub total_ns: u64,
    /// Σ self times.
    pub self_ns: u64,
}

/// Aggregate spans by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Render spans as Chrome `trace_event` JSON: one "X" event per span
/// with microsecond `ts`/`dur` (three decimals, integer formatted as in
/// `fw_trace::export`), the OS thread as `tid`, and the span and parent
/// ids in `args`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    out.push_str(
        "\n{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"perfbench\"}}",
    );
    for s in spans {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.tid,
            s.name,
            us(s.start_ns),
            us(s.dur_ns()),
            s.id,
            s.parent
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            tid: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, NO_PARENT, "root", 0, 100),
            span(2, 1, "a", 10, 50),
            span(3, 1, "a", 30, 70), // overlaps span 2 on another worker
            span(4, 3, "b", 40, 60),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 20, 20]);
        let t = totals_by_name(&spans);
        assert_eq!(
            t["a"],
            NameTotals {
                calls: 2,
                total_ns: 80,
                self_ns: 60
            }
        );
    }

    #[test]
    fn tracer_records_parents_only_when_on() {
        let tr = Tracer::new(true);
        tr.span("root", NO_PARENT, |id| tr.span("child", id, |_| ()));
        let spans = tr.drain();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "child");
        assert_eq!(spans[0].parent, spans[1].id);
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"child\""));

        let off = Tracer::new(false);
        let ((), secs) = off.span("root", NO_PARENT, |_| ());
        assert!(secs >= 0.0);
        assert!(off.drain().is_empty());
    }
}

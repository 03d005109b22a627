//! Benchmark-side spans, kept in memory and written out when the replay ends.
//!
//! Every span is opened and closed by the benchmark around one call into a
//! layer's public API; nothing inside the program is instrumented.  A span
//! records its name, start, end, the span that caused it, and the request it
//! belongs to.  A layer's self time is its duration minus the part its child
//! spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

struct Trace {
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    request: u64,
}

thread_local! {
    static TRACE: RefCell<Trace> = RefCell::new(Trace {
        epoch: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        request: 0,
    });
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Tags the spans opened from now on with request id `id`.
pub fn set_request(id: u64) {
    TRACE.with(|t| t.borrow_mut().request = id);
}

/// Runs `f` inside a span named `name`.  The recorder is not borrowed while
/// `f` runs, so `f` may open nested spans.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let parent = t.stack.last().copied();
        let start_ns = now_ns(t.epoch);
        let request = t.request;
        t.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request,
        });
        let idx = t.spans.len() - 1;
        t.stack.push(idx);
        idx
    });
    let out = f();
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let end = now_ns(t.epoch);
        t.spans[idx].end_ns = end;
        t.stack.pop();
    });
    out
}

/// Takes every recorded span out of the recorder, leaving it empty.
pub fn take() -> Vec<SpanRec> {
    TRACE.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Per-span self time in nanoseconds (duration minus direct children).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
        .collect()
}

/// Summed self time per span name, in seconds.
pub fn self_seconds_by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
    }
    out
}

/// Summed self time of every span below the request roots (parentless
/// spans), per request id, in seconds: the work attributed to a layer.
pub fn attributed_by_request(spans: &[SpanRec]) -> BTreeMap<u64, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        if s.parent.is_some() {
            *out.entry(s.request).or_insert(0.0) += ns as f64 / 1e9;
        }
    }
    out
}

/// Writes the spans as JSON lines: name, start/end (ns since the
/// recorder's epoch), parent index and request id.
pub fn write_jsonl(spans: &[SpanRec], path: &Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    w.flush()
}

/// Cost of recording one span, in seconds, measured on this machine by
/// recording a batch of empty spans.  Call it after [`take`]: it leaves
/// the recorder empty.
pub fn span_cost_seconds() -> f64 {
    const N: usize = 20_000;
    let t0 = Instant::now();
    for _ in 0..N {
        span("calibrate", || std::hint::black_box(0));
    }
    let cost = t0.elapsed().as_secs_f64() / N as f64;
    take();
    cost
}

//! JSON-lines tracing: spans and events with monotonic timestamps.
//!
//! One record per line, written to a caller-installed sink (normally the
//! `--trace FILE` argument).  Record schema:
//!
//! ```json
//! {"ts_us": 1234, "tid": 1, "kind": "event", "name": "pipeline.batch", "attrs": {"batch": 0, "records": 256}}
//! {"ts_us": 1234, "tid": 2, "kind": "span",  "name": "core.refine",    "dur_us": 1870, "attrs": {}}
//! {"ts_us": 1234, "tid": 1, "kind": "warn",  "name": "refine.pass_cap", "attrs": {"message": "...", ...}}
//! ```
//!
//! - `ts_us`: microseconds since the first trace record of the process
//!   (monotonic clock, immune to wall-clock steps).  For spans it is the
//!   span's *start*.
//! - `tid`: a small id assigned to each OS thread on first use (1, 2, ...),
//!   stable for the thread's lifetime.
//! - `attrs`: flat string/integer/float key–value pairs for attribution
//!   (batch index, cluster count, pass number, ...).
//!
//! Tracing is process-global and off by default; every emit site first
//! checks [`enabled`], a relaxed atomic load.  Emission itself takes a
//! mutex — traces record batch/phase-granularity happenings, not per-record
//! hot-loop activity, so contention is negligible.

use std::cell::Cell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);
static ANCHOR: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn thread_id() -> u64 {
    TID.with(|slot| {
        let mut id = slot.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            slot.set(id);
        }
        id
    })
}

fn now_us() -> u64 {
    let anchor = ANCHOR.get_or_init(Instant::now);
    anchor.elapsed().as_micros() as u64
}

/// Whether a trace sink is installed and active.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs a trace sink and activates tracing.  Replaces (and flushes) any
/// previously installed sink.
pub fn init_writer(writer: Box<dyn Write + Send>) {
    let mut sink = SINK.lock().expect("trace sink lock poisoned");
    if let Some(mut old) = sink.replace(writer) {
        let _ = old.flush();
    }
    ENABLED.store(true, Ordering::SeqCst);
}

/// Creates (truncating) `path` and traces into it, buffered.
pub fn init_file(path: &Path) -> io::Result<()> {
    let file = File::create(path)?;
    init_writer(Box::new(BufWriter::new(file)));
    Ok(())
}

/// Deactivates tracing and flushes + drops the sink.  Returns any flush
/// error so CLI callers can surface short-write failures.
pub fn shutdown() -> io::Result<()> {
    ENABLED.store(false, Ordering::SeqCst);
    let mut sink = SINK.lock().expect("trace sink lock poisoned");
    match sink.take() {
        Some(mut writer) => writer.flush(),
        None => Ok(()),
    }
}

/// An attribute value: traces carry flat scalar attributes only.
#[derive(Debug, Clone, Copy)]
pub enum Attr<'a> {
    /// Unsigned integer attribute (counts, indices, ids).
    U64(u64),
    /// Float attribute (seconds, ratios).
    F64(f64),
    /// String attribute (paths, messages, labels).
    Str(&'a str),
}

fn write_attrs(out: &mut String, attrs: &[(&str, Attr<'_>)]) {
    out.push('{');
    for (i, (key, value)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('"');
        crate::json_escape_into(out, key);
        out.push_str("\": ");
        match value {
            Attr::U64(v) => out.push_str(&format!("{v}")),
            Attr::F64(v) => out.push_str(&crate::json_f64(*v)),
            Attr::Str(s) => {
                out.push('"');
                crate::json_escape_into(out, s);
                out.push('"');
            }
        }
    }
    out.push('}');
}

/// Emits one trace record.  `kind` is `event`, `span`, or `warn`;
/// `dur_us` is present for spans only.  Used by [`event`], [`span`], and
/// [`crate::warn`]; instrumented code normally calls those instead.
pub(crate) fn record(kind: &str, name: &str, dur_us: Option<u64>, attrs: &[(&str, Attr<'_>)]) {
    record_at(now_us(), kind, name, dur_us, attrs);
}

fn record_at(ts_us: u64, kind: &str, name: &str, dur_us: Option<u64>, attrs: &[(&str, Attr<'_>)]) {
    let mut line = String::with_capacity(128);
    line.push_str(&format!(
        "{{\"ts_us\": {ts_us}, \"tid\": {}, \"kind\": \"{kind}\", \"name\": \"",
        thread_id()
    ));
    crate::json_escape_into(&mut line, name);
    line.push('"');
    if let Some(dur) = dur_us {
        line.push_str(&format!(", \"dur_us\": {dur}"));
    }
    line.push_str(", \"attrs\": ");
    write_attrs(&mut line, attrs);
    line.push_str("}\n");
    let mut sink = SINK.lock().expect("trace sink lock poisoned");
    if let Some(writer) = sink.as_mut() {
        // A failing sink must not take down the pipeline; the final flush in
        // `shutdown` reports persistent errors.
        let _ = writer.write_all(line.as_bytes());
    }
}

/// Emits a point-in-time event.  A no-op (one relaxed load) when tracing is
/// inactive.
pub fn event(name: &str, attrs: &[(&str, Attr<'_>)]) {
    if enabled() {
        record("event", name, None, attrs);
    }
}

/// Runs `f` as a named span: returns its result and its wall-clock
/// duration in seconds, and — when tracing is on — emits one `span` record
/// stamped with the start time and the duration in `dur_us`.
///
/// This is the workspace's one timing mechanism: phase and job times are
/// the returned seconds, so the trace and the stats a caller reports read
/// the same clock.  With tracing off it costs two monotonic clock reads.
pub fn span<T>(name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let start_us = enabled().then(now_us);
    let started = Instant::now();
    let value = f();
    let elapsed = started.elapsed();
    if let Some(start_us) = start_us {
        record_at(
            start_us,
            "span",
            name,
            Some(elapsed.as_micros() as u64),
            &[],
        );
    }
    (value, elapsed.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Sender};

    // The trace sink is process-global; serialize tests that install one.
    static LOCK: Mutex<()> = Mutex::new(());

    // A Write that forwards lines to a channel, so the test can inspect
    // records without sharing a buffer with the global sink.
    struct ChannelWriter(Sender<String>);

    impl Write for ChannelWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let _ = self.0.send(String::from_utf8_lossy(buf).into_owned());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn events_spans_and_warns_emit_one_json_line_each() {
        let _guard = LOCK.lock().unwrap();
        let (tx, rx) = channel();
        init_writer(Box::new(ChannelWriter(tx)));

        event(
            "unit.event",
            &[("n", Attr::U64(3)), ("label", Attr::Str("a\"b"))],
        );
        let (value, seconds) = span("unit.span", || 7);
        assert_eq!(value, 7);
        assert!(seconds >= 0.0);
        crate::warn("unit.warn", "something happened", &[("code", Attr::U64(7))]);
        shutdown().unwrap();

        let lines: Vec<String> = rx.try_iter().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"kind\": \"event\""));
        assert!(lines[0].contains("\"name\": \"unit.event\""));
        assert!(lines[0].contains("\"label\": \"a\\\"b\""));
        assert!(lines[1].contains("\"kind\": \"span\""));
        assert!(lines[1].contains("\"name\": \"unit.span\""));
        assert!(lines[1].contains("\"dur_us\": "));
        assert!(lines[2].contains("\"kind\": \"warn\""));
        assert!(lines[2].contains("\"message\": \"something happened\""));
        for line in &lines {
            assert!(line.ends_with('\n'));
            assert_eq!(line.matches('\n').count(), 1);
        }
    }

    #[test]
    fn inactive_tracing_emits_nothing_and_spans_are_inert() {
        let _guard = LOCK.lock().unwrap();
        if enabled() {
            shutdown().unwrap();
        }
        event("unit.ignored", &[]);
        // An inert span still runs its body and reports the elapsed time.
        let (value, seconds) = span("unit.ignored", || "ran");
        assert_eq!(value, "ran");
        assert!(seconds >= 0.0);
    }
}

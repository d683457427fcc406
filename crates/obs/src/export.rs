//! Pluggable exporters and the global observability gate.
//!
//! At most one [`Exporter`] is installed process-wide. The gate is a
//! single relaxed [`AtomicU64`](std::sync::atomic::AtomicU64) packing two facts: bit 0 says an
//! exporter is installed, and every `TRACE_UNIT` above it counts one
//! live [`TraceContext`](crate::trace::TraceContext). Span enters and
//! call sites that want to skip expensive measurement (gradient norms,
//! per-candidate stats) consult the word with one relaxed load: zero
//! means nothing in the process can observe the event, so everything
//! downstream is skipped. Installation is expected at process start
//! (bench bins read `SACCS_OBS`) or inside a single test; exporters
//! themselves must be `Send + Sync`.

use parking_lot::{Mutex, RwLock};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Receives span lifecycle callbacks from instrumented code.
///
/// `depth` is the number of enclosing spans on the emitting thread
/// (0 = top level); `nanos` is the span's wall duration. Implementations
/// run inline on the instrumented thread, so they should stay cheap.
pub trait Exporter: Send + Sync {
    /// A span named `name` opened at nesting `depth`.
    fn span_enter(&self, name: &'static str, depth: usize);
    /// The span closed after `nanos` of wall time.
    fn span_exit(&self, name: &'static str, depth: usize, nanos: u64);
    /// Flush any buffered output (end of process / end of bench).
    fn flush(&self) {}
}

/// Bit 0 of [`GATE`]: an exporter is installed.
pub(crate) const EXPORTER_BIT: u64 = 1;
/// One live `TraceContext` in [`GATE`] (the count lives above bit 0).
pub(crate) const TRACE_UNIT: u64 = 2;

static GATE: AtomicU64 = AtomicU64::new(0);

fn slot() -> &'static RwLock<Option<Arc<dyn Exporter>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<dyn Exporter>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// The raw gate word: zero exactly when no exporter is installed and no
/// trace context is alive anywhere in the process.
#[inline]
pub(crate) fn gate_load() -> u64 {
    GATE.load(Ordering::Relaxed)
}

/// Whether an exporter is currently installed. The disabled-path cost of
/// every span and gated measurement in the workspace is exactly this
/// relaxed load.
#[inline]
pub fn enabled() -> bool {
    gate_load() & EXPORTER_BIT != 0
}

/// Whether any `TraceContext` is alive in the process. One relaxed load;
/// typed trace events short-circuit on this before touching the
/// thread-local current-context slot.
#[inline]
pub(crate) fn tracing_possible() -> bool {
    gate_load() >= TRACE_UNIT
}

/// A `TraceContext` came alive (called from its constructor).
pub(crate) fn gate_trace_inc() {
    GATE.fetch_add(TRACE_UNIT, Ordering::AcqRel);
}

/// A `TraceContext` was dropped.
pub(crate) fn gate_trace_dec() {
    GATE.fetch_sub(TRACE_UNIT, Ordering::AcqRel);
}

/// Install `exporter` as the process-wide sink (replacing any previous
/// one) and flip the exporter bit on.
pub fn install(exporter: Arc<dyn Exporter>) {
    *slot().write() = Some(exporter);
    GATE.fetch_or(EXPORTER_BIT, Ordering::Release);
}

/// Flush and remove the installed exporter; spans go back to the inert
/// fast path (live trace contexts, if any, keep their own gate units).
pub fn uninstall() {
    GATE.fetch_and(!EXPORTER_BIT, Ordering::Release);
    let previous = slot().write().take();
    if let Some(e) = previous {
        e.flush();
    }
}

/// Run `f` against the installed exporter, if any.
pub fn with_exporter(f: impl FnOnce(&dyn Exporter)) {
    let guard = slot().read();
    if let Some(e) = guard.as_ref() {
        f(e.as_ref());
    }
}

/// Flush the installed exporter without removing it.
pub fn flush() {
    with_exporter(|e| e.flush());
}

/// Human-readable tree on stderr: one indented line per span exit with
/// its duration. Writes via `std::io::Write` (never `eprintln!` — the
/// `no-print-in-lib` lint bans direct printing in instrumented crates).
#[derive(Debug, Default)]
pub struct StderrTree;

impl Exporter for StderrTree {
    fn span_enter(&self, _name: &'static str, _depth: usize) {}

    fn span_exit(&self, name: &'static str, depth: usize, nanos: u64) {
        let stderr = std::io::stderr();
        let mut out = stderr.lock();
        let _ = writeln!(
            out,
            "[obs] {:indent$}{name} {:.3}ms",
            "",
            nanos as f64 / 1e6,
            indent = depth * 2,
        );
    }

    fn flush(&self) {
        let _ = std::io::stderr().flush();
    }
}

/// Streams one JSON object per span event to any writer (a file, a
/// `Vec<u8>` in tests): `{"ev":"enter",...}` / `{"ev":"exit",...}`.
pub struct JsonLines<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonLines<W> {
    /// Wrap `out`; every event becomes one line of JSON on it.
    pub fn new(out: W) -> JsonLines<W> {
        JsonLines {
            out: Mutex::new(out),
        }
    }
}

impl<W: Write + Send> Exporter for JsonLines<W> {
    fn span_enter(&self, name: &'static str, depth: usize) {
        let mut out = self.out.lock();
        let _ = writeln!(
            out,
            "{{\"ev\":\"enter\",\"span\":\"{}\",\"depth\":{depth}}}",
            crate::json::escape(name),
        );
    }

    fn span_exit(&self, name: &'static str, depth: usize, nanos: u64) {
        let mut out = self.out.lock();
        let _ = writeln!(
            out,
            "{{\"ev\":\"exit\",\"span\":\"{}\",\"depth\":{depth},\"ns\":{nanos}}}",
            crate::json::escape(name),
        );
    }

    fn flush(&self) {
        let _ = self.out.lock().flush();
    }
}

/// One recorded span lifecycle event (see [`InMemoryCollector`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanEvent {
    /// Span opened at `depth`.
    Enter {
        /// Span name as passed to `span!`.
        name: &'static str,
        /// Enclosing span count on the emitting thread.
        depth: usize,
    },
    /// Span closed after `nanos`.
    Exit {
        /// Span name as passed to `span!`.
        name: &'static str,
        /// Enclosing span count on the emitting thread.
        depth: usize,
        /// Wall duration of the span.
        nanos: u64,
    },
}

/// Test exporter that records every event in order, so tests can assert
/// the exact span tree an instrumented call produces.
#[derive(Debug, Default)]
pub struct InMemoryCollector {
    events: Mutex<Vec<SpanEvent>>,
}

impl InMemoryCollector {
    /// An empty collector (install it, run the code under test, read
    /// [`events`](Self::events)).
    pub fn new() -> InMemoryCollector {
        InMemoryCollector::default()
    }

    /// Everything recorded so far, in arrival order.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.events.lock().clone()
    }

    /// `(name, depth)` of each `Enter` event, in order — the span tree
    /// in preorder.
    pub fn enter_tree(&self) -> Vec<(&'static str, usize)> {
        self.events
            .lock()
            .iter()
            .filter_map(|e| match e {
                SpanEvent::Enter { name, depth } => Some((*name, *depth)),
                SpanEvent::Exit { .. } => None,
            })
            .collect()
    }
}

impl Exporter for InMemoryCollector {
    fn span_enter(&self, name: &'static str, depth: usize) {
        self.events.lock().push(SpanEvent::Enter { name, depth });
    }

    fn span_exit(&self, name: &'static str, depth: usize, nanos: u64) {
        self.events
            .lock()
            .push(SpanEvent::Exit { name, depth, nanos });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_emit_valid_objects() {
        let sink = JsonLines::new(Vec::new());
        sink.span_enter("stage.\"a\"", 0);
        sink.span_exit("stage.\"a\"", 0, 1500);
        let text = String::from_utf8(sink.out.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"ev\":\"enter\",\"span\":\"stage.\\\"a\\\"\",\"depth\":0}"
        );
        assert_eq!(
            lines[1],
            "{\"ev\":\"exit\",\"span\":\"stage.\\\"a\\\"\",\"depth\":0,\"ns\":1500}"
        );
    }

    #[test]
    fn json_lines_survive_eight_writer_threads_untorn() {
        // 8 threads hammer one JsonLines sink; every output line must be
        // exactly one well-formed event object (no torn or interleaved
        // writes) and nothing may be lost. The sink serializes each event
        // under its mutex with a single `writeln!`, which this pins.
        const THREADS: usize = 8;
        const PER_THREAD: usize = 500;
        let sink = std::sync::Arc::new(JsonLines::new(Vec::new()));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let sink = std::sync::Arc::clone(&sink);
                s.spawn(move || {
                    let name: &'static str = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"][t];
                    for i in 0..PER_THREAD {
                        sink.span_enter(name, t);
                        sink.span_exit(name, t, i as u64);
                    }
                });
            }
        });
        let sink = std::sync::Arc::into_inner(sink).expect("all writer threads joined");
        let text = String::from_utf8(sink.out.into_inner()).expect("utf8 output");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), THREADS * PER_THREAD * 2);
        let mut enters = 0usize;
        for line in lines {
            assert!(
                line.starts_with("{\"ev\":\"enter\",\"span\":\"t")
                    || line.starts_with("{\"ev\":\"exit\",\"span\":\"t"),
                "torn line: {line:?}"
            );
            assert!(line.ends_with('}'), "torn line: {line:?}");
            assert_eq!(line.matches("{\"ev\":").count(), 1, "interleaved: {line:?}");
            if line.contains("\"enter\"") {
                enters += 1;
            }
        }
        assert_eq!(enters, THREADS * PER_THREAD);
    }

    #[test]
    fn collector_preserves_order_and_tree() {
        let c = InMemoryCollector::new();
        c.span_enter("a", 0);
        c.span_enter("b", 1);
        c.span_exit("b", 1, 10);
        c.span_exit("a", 0, 20);
        assert_eq!(c.enter_tree(), vec![("a", 0), ("b", 1)]);
        assert_eq!(c.events().len(), 4);
    }
}

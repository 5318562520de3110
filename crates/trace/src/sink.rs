//! The recording handle: [`TraceSink`].
//!
//! A `TraceSink` is cheap to clone (an `Option<Arc<..>>`) and is threaded
//! through every simulated service. The disabled sink is a `None` — each
//! recording call is then a single branch and no allocation, which keeps
//! tracing zero-cost for untraced runs.
//!
//! Besides the in-memory recorder there is a *streaming* mode
//! ([`TraceSink::streaming`]): completed spans are serialized to a JSONL
//! writer the moment they close and dropped from memory, so a cluster
//! sweep with thousands of runs holds only the currently-open spans. The
//! in-memory path is untouched when streaming is off — same ids, same
//! storage, same snapshots.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;

use faaspipe_des::{ProcessId, SimTime};
use parking_lot::Mutex;
use std::sync::Arc;

use crate::counter::{CounterKind, CounterSeries};
use crate::span::{Category, Span, SpanId, Value};

/// Streaming-mode state: the JSONL writer plus the minimal residue kept
/// in memory (open spans; each counter keeps its last two points).
struct Stream {
    out: Box<dyn Write + Send>,
    /// Spans started but not yet ended, keyed by raw id.
    open: BTreeMap<u64, Span>,
    /// Next span id to hand out (ids stay 1-based creation order).
    next_id: u64,
    /// Completed spans flushed to the writer so far.
    written: u64,
    /// First write error, surfaced by [`TraceSink::finish`].
    error: Option<io::Error>,
}

/// One counter's series. A streaming sink keeps only the series' last
/// written point and the pending point after it.
struct Counter {
    series: CounterSeries,
    /// Whether the writer already has the series' first point.
    flushed: bool,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    counters: BTreeMap<String, Counter>,
    /// Per-process stack of open spans, used to parent cross-crate
    /// recordings (a store request made inside a function body parents
    /// to that invocation's span without threading ids through APIs).
    stacks: BTreeMap<usize, Vec<SpanId>>,
    /// `Some` puts the sink in streaming mode; `spans`/`counters` above
    /// then stay empty.
    stream: Option<Stream>,
}

/// Cheaply-clonable handle through which all trace data is recorded.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<Mutex<State>>>,
}

impl TraceSink {
    /// A sink that drops everything (the default).
    pub fn disabled() -> TraceSink {
        TraceSink { inner: None }
    }

    /// A sink that records spans and counters in memory.
    pub fn recording() -> TraceSink {
        TraceSink {
            inner: Some(Arc::new(Mutex::new(State::default()))),
        }
    }

    /// A sink that streams completed spans and counter points to `out`
    /// as JSON Lines instead of holding them in memory. Only open spans
    /// and each counter's last two points are retained; call
    /// [`TraceSink::finish`] at the end of the run to flush buffered tail
    /// state.
    pub fn streaming(out: Box<dyn Write + Send>) -> TraceSink {
        TraceSink {
            inner: Some(Arc::new(Mutex::new(State {
                stream: Some(Stream {
                    out,
                    open: BTreeMap::new(),
                    next_id: 1,
                    written: 0,
                    error: None,
                }),
                ..State::default()
            }))),
        }
    }

    /// A streaming sink writing to a buffered file at `path`.
    pub fn streaming_file(path: impl AsRef<Path>) -> io::Result<TraceSink> {
        let file = std::fs::File::create(path)?;
        Ok(TraceSink::streaming(Box::new(io::BufWriter::new(file))))
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span at virtual time `at`; returns its id
    /// ([`SpanId::NONE`] when disabled).
    pub fn span_start(
        &self,
        category: Category,
        name: impl Into<String>,
        track: &str,
        lane: &str,
        parent: SpanId,
        at: SimTime,
    ) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        let mut state = inner.lock();
        if let Some(stream) = &mut state.stream {
            let id = SpanId(stream.next_id);
            stream.next_id += 1;
            stream.open.insert(
                id.0,
                Span {
                    id,
                    parent: if parent.is_none() { None } else { Some(parent) },
                    category,
                    name: name.into(),
                    track: track.to_string(),
                    lane: lane.to_string(),
                    start: at,
                    end: None,
                    attrs: Vec::new(),
                },
            );
            return id;
        }
        let id = SpanId(state.spans.len() as u64 + 1);
        state.spans.push(Span {
            id,
            parent: if parent.is_none() { None } else { Some(parent) },
            category,
            name: name.into(),
            track: track.to_string(),
            lane: lane.to_string(),
            start: at,
            end: None,
            attrs: Vec::new(),
        });
        id
    }

    /// Closes span `id` at virtual time `at`. Ignores the null id and
    /// double-closes.
    pub fn span_end(&self, id: SpanId, at: SimTime) {
        let Some(inner) = &self.inner else { return };
        if id.is_none() {
            return;
        }
        let mut state = inner.lock();
        if let Some(stream) = &mut state.stream {
            if let Some(mut span) = stream.open.remove(&id.0) {
                span.end = Some(at.max(span.start));
                stream.write_span(&span);
            }
            return;
        }
        if let Some(span) = state.spans.get_mut(id.0 as usize - 1) {
            if span.end.is_none() {
                span.end = Some(at.max(span.start));
            }
        }
    }

    /// Attaches a key/value attribute to span `id` (no-op for the null
    /// id; replaces an existing value for the same key). In streaming
    /// mode, attributes attach only while the span is still open.
    pub fn attr(&self, id: SpanId, key: &str, value: impl Into<Value>) {
        let Some(inner) = &self.inner else { return };
        if id.is_none() {
            return;
        }
        let mut state = inner.lock();
        let span = if let Some(stream) = &mut state.stream {
            stream.open.get_mut(&id.0)
        } else {
            state.spans.get_mut(id.0 as usize - 1)
        };
        if let Some(span) = span {
            let value = value.into();
            match span.attrs.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => span.attrs.push((key.to_string(), value)),
            }
        }
    }

    /// Sets a gauge counter to `value` at time `at` (recorded only when
    /// the value changes).
    pub fn gauge(&self, name: &str, at: SimTime, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner.lock().record(name, CounterKind::Gauge, at, |_| value);
    }

    /// Adds `delta` to a cumulative counter at time `at`.
    pub fn add(&self, name: &str, at: SimTime, delta: f64) {
        let Some(inner) = &self.inner else { return };
        inner
            .lock()
            .record(name, CounterKind::Cumulative, at, |last| last + delta);
    }

    /// Pushes span `id` onto `pid`'s open-span stack; spans recorded
    /// from that process via [`TraceSink::current`] parent to it.
    pub fn enter(&self, pid: ProcessId, id: SpanId) {
        let Some(inner) = &self.inner else { return };
        if id.is_none() {
            return;
        }
        inner.lock().stacks.entry(pid.index()).or_default().push(id);
    }

    /// Pops the top of `pid`'s open-span stack.
    pub fn exit(&self, pid: ProcessId) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.lock();
        if let Some(stack) = state.stacks.get_mut(&pid.index()) {
            stack.pop();
            if stack.is_empty() {
                state.stacks.remove(&pid.index());
            }
        }
    }

    /// The innermost open span registered for `pid` via
    /// [`TraceSink::enter`], or [`SpanId::NONE`].
    pub fn current(&self, pid: ProcessId) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        inner
            .lock()
            .stacks
            .get(&pid.index())
            .and_then(|s| s.last().copied())
            .unwrap_or(SpanId::NONE)
    }

    /// Latest value of counter `name` (0.0 if never recorded).
    pub fn counter_value(&self, name: &str) -> f64 {
        let Some(inner) = &self.inner else { return 0.0 };
        inner
            .lock()
            .counters
            .get(name)
            .map_or(0.0, |c| c.series.last_value())
    }

    /// Copies out everything recorded so far (empty for a disabled
    /// sink). Exporters and the analyzer work on this snapshot.
    ///
    /// A *streaming* sink snapshots empty: completed spans live in the
    /// JSONL output, not in memory.
    pub fn snapshot(&self) -> TraceData {
        match &self.inner {
            None => TraceData::default(),
            Some(inner) => {
                let state = inner.lock();
                if state.stream.is_some() {
                    return TraceData::default();
                }
                TraceData {
                    spans: state.spans.clone(),
                    counters: state.counters.values().map(|c| c.series.clone()).collect(),
                }
            }
        }
    }

    /// Flushes a streaming sink: writes still-open spans (marked
    /// `"open":true`), flushes buffered counter tails, and flushes the
    /// writer. Returns the first write error encountered over the whole
    /// stream. A no-op (Ok) for disabled and in-memory sinks.
    ///
    /// The sink stays usable afterwards, but flushed open spans are
    /// forgotten — call this once, at the end of the run.
    pub fn finish(&self) -> io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let mut state = inner.lock();
        let State {
            counters, stream, ..
        } = &mut *state;
        let Some(stream) = stream else {
            return Ok(());
        };
        let open: Vec<Span> = std::mem::take(&mut stream.open).into_values().collect();
        for span in &open {
            stream.write_span(span);
        }
        for (name, counter) in counters.iter_mut() {
            let len = counter.series.points.len();
            stream.write_through(name, counter, len);
        }
        if stream.error.is_none() {
            if let Err(e) = stream.out.flush() {
                stream.error = Some(e);
            }
        }
        match stream.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl State {
    /// Records counter `name` at `at` as `value` of its last value,
    /// coalesced by [`CounterSeries::record`]; a streaming sink then
    /// writes the point this settled.
    fn record(
        &mut self,
        name: &str,
        kind: CounterKind,
        at: SimTime,
        value: impl FnOnce(f64) -> f64,
    ) {
        let counter = self
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Counter {
                series: CounterSeries::new(name, kind),
                flushed: false,
            });
        let series = &mut counter.series;
        series.record(at, value(series.last_value()));
        if let Some(stream) = &mut self.stream {
            // Every point but the last is settled: a point changes only
            // until time moves past it.
            let settled = series.points.len().saturating_sub(1);
            stream.write_through(name, counter, settled);
        }
    }
}

impl Stream {
    /// Writes the points of `counter` before index `upto` that the
    /// writer does not have yet, then drops the points before the last
    /// of them: the series keeps its last written point and what
    /// follows it.
    fn write_through(&mut self, name: &str, counter: &mut Counter, upto: usize) {
        let series = &mut counter.series;
        let unwritten = usize::from(counter.flushed)..upto;
        for &(at, value) in series.points.get(unwritten).unwrap_or_default() {
            self.write_counter(name, series.kind, at, value);
        }
        if upto > 0 {
            series.points.drain(..upto - 1);
            counter.flushed = true;
        }
    }

    fn write_span(&mut self, span: &Span) {
        use faaspipe_json::Json;
        let mut fields = vec![
            ("type".to_string(), Json::Str("span".to_string())),
            ("id".to_string(), Json::UInt(span.id.as_u64())),
            (
                "parent".to_string(),
                span.parent.map_or(Json::Null, |p| Json::UInt(p.as_u64())),
            ),
            (
                "category".to_string(),
                Json::Str(span.category.as_str().to_string()),
            ),
            ("name".to_string(), Json::Str(span.name.clone())),
            ("track".to_string(), Json::Str(span.track.clone())),
            ("lane".to_string(), Json::Str(span.lane.clone())),
            ("start_ns".to_string(), Json::UInt(span.start.as_nanos())),
            (
                "end_ns".to_string(),
                span.end.map_or(Json::Null, |e| Json::UInt(e.as_nanos())),
            ),
        ];
        if span.end.is_none() {
            fields.push(("open".to_string(), Json::Bool(true)));
        }
        if !span.attrs.is_empty() {
            let attrs = span
                .attrs
                .iter()
                .map(|(k, v)| (k.clone(), crate::value_to_json(v)))
                .collect();
            fields.push(("attrs".to_string(), Json::Object(attrs)));
        }
        self.write_line(&Json::Object(fields));
        self.written += 1;
    }

    fn write_counter(&mut self, name: &str, kind: CounterKind, at: SimTime, value: f64) {
        use faaspipe_json::Json;
        let line = Json::Object(vec![
            ("type".to_string(), Json::Str("counter".to_string())),
            ("name".to_string(), Json::Str(name.to_string())),
            ("kind".to_string(), Json::Str(kind.as_str().to_string())),
            ("t_ns".to_string(), Json::UInt(at.as_nanos())),
            ("value".to_string(), Json::Float(value)),
        ]);
        self.write_line(&line);
    }

    fn write_line(&mut self, line: &faaspipe_json::Json) {
        if self.error.is_some() {
            return;
        }
        let mut text = faaspipe_json::to_string(line);
        text.push('\n');
        if let Err(e) = self.out.write_all(text.as_bytes()) {
            self.error = Some(e);
        }
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("TraceSink(disabled)"),
            Some(inner) => {
                let state = inner.lock();
                write!(
                    f,
                    "TraceSink({} spans, {} counters)",
                    state.spans.len(),
                    state.counters.len()
                )
            }
        }
    }
}

/// An immutable snapshot of recorded trace data.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// All spans in creation order (id order).
    pub spans: Vec<Span>,
    /// All counter series, sorted by name.
    pub counters: Vec<CounterSeries>,
}

impl TraceData {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty()
    }

    /// Looks up a span by id.
    pub fn span(&self, id: SpanId) -> Option<&Span> {
        if id.is_none() {
            return None;
        }
        self.spans.get(id.0 as usize - 1)
    }

    /// Looks up a counter series by name.
    pub fn counter(&self, name: &str) -> Option<&CounterSeries> {
        self.counters.iter().find(|c| c.name == name)
    }

    /// The root run span, if one was recorded.
    pub fn run_span(&self) -> Option<&Span> {
        self.spans.iter().find(|s| s.category == Category::Run)
    }

    /// Combines several labelled recordings into one trace: span ids are
    /// renumbered, and track and counter names get a `label/` prefix so
    /// the runs land on distinct processes in the Chrome export.
    pub fn merged(runs: &[(&str, &TraceData)]) -> TraceData {
        let mut out = TraceData::default();
        for (label, data) in runs {
            let base = out.spans.len() as u64;
            for span in &data.spans {
                let mut s = span.clone();
                s.id = SpanId(s.id.0 + base);
                s.parent = s.parent.map(|p| SpanId(p.0 + base));
                s.track = format!("{}/{}", label, s.track);
                out.spans.push(s);
            }
            for series in &data.counters {
                let mut c = series.clone();
                c.name = format!("{}/{}", label, c.name);
                out.counters.push(c);
            }
        }
        out.counters.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_nanos(s * 1_000_000_000)
    }

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        let id = sink.span_start(Category::Run, "run", "driver", "driver", SpanId::NONE, t(0));
        assert!(id.is_none());
        sink.attr(id, "k", 1u64);
        sink.span_end(id, t(1));
        sink.gauge("g", t(0), 1.0);
        sink.add("c", t(0), 2.0);
        assert!(sink.snapshot().is_empty());
    }

    #[test]
    fn records_spans_with_parents_and_attrs() {
        let sink = TraceSink::recording();
        let run = sink.span_start(Category::Run, "run", "driver", "driver", SpanId::NONE, t(0));
        let stage = sink.span_start(Category::Stage, "sort", "driver", "driver", run, t(1));
        sink.attr(stage, "workers", 8u64);
        sink.attr(stage, "workers", 9u64); // replaces
        sink.span_end(stage, t(5));
        sink.span_end(run, t(6));

        let data = sink.snapshot();
        assert_eq!(data.spans.len(), 2);
        let s = data.span(stage).unwrap();
        assert_eq!(s.parent, Some(run));
        assert_eq!(s.attrs, vec![("workers".to_string(), Value::U64(9))]);
        assert_eq!(s.duration().unwrap().as_secs_f64(), 4.0);
        assert_eq!(data.run_span().unwrap().id, run);
    }

    #[test]
    fn clones_share_the_recorder() {
        let sink = TraceSink::recording();
        let clone = sink.clone();
        clone.span_start(Category::Compute, "x", "a", "b", SpanId::NONE, t(0));
        assert_eq!(sink.snapshot().spans.len(), 1);
    }

    #[test]
    fn cumulative_counters_accumulate() {
        let sink = TraceSink::recording();
        sink.add("bytes", t(1), 10.0);
        sink.add("bytes", t(2), 5.0);
        let data = sink.snapshot();
        let c = data.counter("bytes").unwrap();
        assert_eq!(c.kind, CounterKind::Cumulative);
        assert_eq!(c.last_value(), 15.0);
    }

    /// A `Write` handing its bytes to a shared buffer the test can read
    /// after the sink is done with it.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().clone()).expect("utf8")
        }
    }

    #[test]
    fn streaming_sink_spills_completed_spans_as_jsonl() {
        let buf = SharedBuf::default();
        let sink = TraceSink::streaming(Box::new(buf.clone()));
        assert!(sink.is_enabled());
        let run = sink.span_start(Category::Run, "run", "driver", "driver", SpanId::NONE, t(0));
        let stage = sink.span_start(Category::Stage, "sort", "driver", "driver", run, t(1));
        sink.attr(stage, "workers", 8u64);
        sink.span_end(stage, t(5));
        // The stage span is already on disk; the run span is still open
        // and nothing is retained in a snapshot.
        assert!(sink.snapshot().is_empty());
        let first = buf.text();
        assert_eq!(first.lines().count(), 1);
        sink.span_end(run, t(6));
        sink.finish().expect("finish");
        let lines: Vec<faaspipe_json::Json> = buf
            .text()
            .lines()
            .map(|l| faaspipe_json::from_str(l).expect("valid json line"))
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("name").unwrap().as_str(), Some("sort"));
        assert_eq!(
            lines[0].get("end_ns"),
            Some(&faaspipe_json::Json::UInt(5_000_000_000))
        );
        assert_eq!(
            lines[0].get("attrs").unwrap().get("workers"),
            Some(&faaspipe_json::Json::UInt(8))
        );
        assert_eq!(lines[1].get("name").unwrap().as_str(), Some("run"));
    }

    #[test]
    fn streaming_finish_writes_open_spans_and_counter_tails() {
        let buf = SharedBuf::default();
        let sink = TraceSink::streaming(Box::new(buf.clone()));
        sink.span_start(Category::Run, "run", "driver", "driver", SpanId::NONE, t(0));
        sink.gauge("g", t(1), 2.0);
        sink.add("c", t(2), 3.0);
        assert_eq!(sink.counter_value("g"), 2.0);
        assert_eq!(sink.counter_value("c"), 3.0);
        sink.finish().expect("finish");
        let text = buf.text();
        let lines: Vec<faaspipe_json::Json> = text
            .lines()
            .map(|l| faaspipe_json::from_str(l).expect("valid json line"))
            .collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].get("open"), Some(&faaspipe_json::Json::Bool(true)));
        assert!(lines
            .iter()
            .any(|l| l.get("name").unwrap().as_str() == Some("g")
                && l.get("kind").unwrap().as_str() == Some("gauge")));
        assert!(lines
            .iter()
            .any(|l| l.get("name").unwrap().as_str() == Some("c")
                && l.get("kind").unwrap().as_str() == Some("cumulative")));
    }

    #[test]
    fn streaming_counters_match_in_memory_coalescing() {
        // Drive the same update sequence through both modes; the JSONL
        // points must equal the in-memory series point-for-point.
        let apply = |sink: &TraceSink| {
            sink.gauge("x", t(1), 1.0);
            sink.gauge("x", t(2), 1.0); // unchanged: skipped
            sink.gauge("x", t(3), 5.0);
            sink.gauge("x", t(3), 1.0); // back to previous at same instant
            sink.gauge("x", t(4), 2.0);
            sink.add("y", t(1), 10.0);
            sink.add("y", t(1), -10.0); // first point coalesces to 0.0, kept
            sink.add("y", t(2), 4.0);
        };
        let mem = TraceSink::recording();
        apply(&mem);
        let buf = SharedBuf::default();
        let streamed = TraceSink::streaming(Box::new(buf.clone()));
        apply(&streamed);
        streamed.finish().expect("finish");
        let data = mem.snapshot();
        let mut streamed_points: BTreeMap<String, Vec<(u64, f64)>> = BTreeMap::new();
        for line in buf.text().lines() {
            let v: faaspipe_json::Json = faaspipe_json::from_str(line).expect("json");
            let name: String = faaspipe_json::field(&v, "name").expect("name");
            let t_ns: u64 = faaspipe_json::field(&v, "t_ns").expect("t_ns");
            let value: f64 = faaspipe_json::field(&v, "value").expect("value");
            streamed_points.entry(name).or_default().push((t_ns, value));
        }
        for series in &data.counters {
            let expect: Vec<(u64, f64)> = series
                .points
                .iter()
                .map(|&(pt, v)| (pt.as_nanos(), v))
                .collect();
            assert_eq!(
                streamed_points.get(&series.name),
                Some(&expect),
                "series {} diverged",
                series.name
            );
        }
        assert_eq!(streamed_points.len(), data.counters.len());
    }

    #[test]
    fn streaming_same_sequence_is_byte_identical() {
        let run = || {
            let buf = SharedBuf::default();
            let sink = TraceSink::streaming(Box::new(buf.clone()));
            let a = sink.span_start(Category::Run, "run", "driver", "driver", SpanId::NONE, t(0));
            let b = sink.span_start(Category::Invocation, "f", "faas", "fn-0", a, t(1));
            sink.attr(b, "bytes", 123u64);
            sink.gauge("pool", t(1), 1.0);
            sink.span_end(b, t(2));
            sink.gauge("pool", t(2), 0.0);
            sink.span_end(a, t(3));
            sink.finish().expect("finish");
            buf.text()
        };
        assert_eq!(run(), run());
    }
}

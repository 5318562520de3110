//! The job tracker: live per-stage progress and notes.
//!
//! Stands in for the paper's "IPython interface for job tracking in real
//! time, which displays the workflow progress and breaks the cost down at
//! each stage" (§2.4) — here an event log with text rendering; the cost
//! breakdown itself comes from [`crate::pricing::CostReport`].
//!
//! Since the introduction of `faaspipe-trace`, the tracker is a thin
//! front-end over a [`TraceSink`]: stage starts/ends become
//! [`Category::Stage`] spans and notes become zero-length annotation
//! spans, so a traced pipeline gets the tracker's view for free in its
//! exports. A standalone `Tracker::new()` records into a private sink and
//! behaves exactly as before.

use parking_lot::Mutex;
use std::sync::Arc;

use faaspipe_des::{Ctx, SimDuration, SimTime};
use faaspipe_trace::{Category, SpanId, TraceSink, Value};

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrackKind {
    /// A stage began executing.
    StageStart,
    /// A stage finished.
    StageEnd,
    /// Free-form progress note (e.g. "planner picked W=13, ...").
    Note(String),
}

/// One tracker event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackEvent {
    /// Virtual time of the event.
    pub time: SimTime,
    /// Stage the event belongs to.
    pub stage: String,
    /// Event payload.
    pub kind: TrackKind,
}

/// Completed span of one stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpan {
    /// Stage name.
    pub stage: String,
    /// Start time.
    pub started: SimTime,
    /// End time.
    pub finished: SimTime,
}

impl StageSpan {
    /// The stage's duration.
    pub fn duration(&self) -> SimDuration {
        self.finished.saturating_duration_since(self.started)
    }
}

/// Shared, cheaply clonable job tracker backed by a [`TraceSink`].
#[derive(Clone)]
pub struct Tracker {
    sink: TraceSink,
    parent: SpanId,
    open: Arc<Mutex<Vec<(String, SpanId)>>>,
}

impl std::fmt::Debug for Tracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracker").field("sink", &self.sink).finish()
    }
}

impl Default for Tracker {
    fn default() -> Tracker {
        Tracker::new()
    }
}

impl Tracker {
    /// Creates a standalone tracker recording into a private sink.
    pub fn new() -> Tracker {
        Tracker::with_sink(TraceSink::recording(), SpanId::NONE)
    }

    /// Creates a tracker recording into `sink`, parenting stage spans to
    /// `parent` (typically the pipeline's run span). With a disabled sink
    /// the tracker records nothing — pass a recording sink if the
    /// rendered log is wanted.
    pub fn with_sink(sink: TraceSink, parent: SpanId) -> Tracker {
        Tracker {
            sink,
            parent,
            open: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The sink this tracker records through.
    pub fn sink(&self) -> &TraceSink {
        &self.sink
    }

    /// Records a stage start at the current virtual time. The stage span
    /// is also pushed onto the calling process's open-span stack so
    /// service-level spans (invocations, store requests) parent to it.
    pub fn stage_start(&self, ctx: &Ctx, stage: &str) {
        let id = self.sink.span_start(
            Category::Stage,
            stage,
            "driver",
            "driver",
            self.parent,
            ctx.now(),
        );
        self.sink.enter(ctx.pid(), id);
        self.open.lock().push((stage.to_string(), id));
    }

    /// Records a stage end at the current virtual time.
    pub fn stage_end(&self, ctx: &Ctx, stage: &str) {
        let id = {
            let mut open = self.open.lock();
            match open.iter().rposition(|(name, _)| name == stage) {
                Some(pos) => open.remove(pos).1,
                None => return,
            }
        };
        self.sink.span_end(id, ctx.now());
        self.sink.exit(ctx.pid());
    }

    /// Records a free-form note (a zero-length annotation span).
    pub fn note(&self, ctx: &Ctx, stage: &str, message: impl Into<String>) {
        let parent = self
            .open
            .lock()
            .iter()
            .rev()
            .find(|(name, _)| name == stage)
            .map_or(self.parent, |(_, id)| *id);
        let now = ctx.now();
        let id = self.sink.span_start(
            Category::Orchestration,
            stage,
            "driver",
            "driver",
            parent,
            now,
        );
        self.sink.attr(id, "note", message.into());
        self.sink.span_end(id, now);
    }

    /// All events so far, in order.
    pub fn events(&self) -> Vec<TrackEvent> {
        let data = self.sink.snapshot();
        // Rank orders simultaneous events the way the live log did:
        // a stage's end precedes the next stage's start at the same time.
        let mut keyed: Vec<(SimTime, u8, u64, TrackEvent)> = Vec::new();
        for span in &data.spans {
            match span.category {
                Category::Stage if span.track == "driver" => {
                    keyed.push((
                        span.start,
                        2,
                        span.id.as_u64(),
                        TrackEvent {
                            time: span.start,
                            stage: span.name.clone(),
                            kind: TrackKind::StageStart,
                        },
                    ));
                    if let Some(end) = span.end {
                        keyed.push((
                            end,
                            0,
                            span.id.as_u64(),
                            TrackEvent {
                                time: end,
                                stage: span.name.clone(),
                                kind: TrackKind::StageEnd,
                            },
                        ));
                    }
                }
                Category::Orchestration => {
                    if let Some((_, Value::Str(msg))) = span.attrs.iter().find(|(k, _)| k == "note")
                    {
                        keyed.push((
                            span.start,
                            1,
                            span.id.as_u64(),
                            TrackEvent {
                                time: span.start,
                                stage: span.name.clone(),
                                kind: TrackKind::Note(msg.clone()),
                            },
                        ));
                    }
                }
                _ => {}
            }
        }
        keyed.sort_by_key(|(time, rank, id, _)| (*time, *rank, *id));
        keyed.into_iter().map(|(_, _, _, e)| e).collect()
    }

    /// Completed stage spans, in start order.
    pub fn spans(&self) -> Vec<StageSpan> {
        let data = self.sink.snapshot();
        let mut spans: Vec<StageSpan> = data
            .spans
            .iter()
            .filter(|s| s.category == Category::Stage && s.track == "driver")
            .filter_map(|s| {
                Some(StageSpan {
                    stage: s.name.clone(),
                    started: s.start,
                    finished: s.end?,
                })
            })
            .collect();
        spans.sort_by_key(|s| s.started);
        spans
    }

    /// Renders the progress log as text (the tracker display).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            let what = match &e.kind {
                TrackKind::StageStart => "started".to_string(),
                TrackKind::StageEnd => "finished".to_string(),
                TrackKind::Note(msg) => msg.clone(),
            };
            out.push_str(&format!(
                "[{:>10.3}s] {:<12} {}\n",
                e.time.as_secs_f64(),
                e.stage,
                what
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faaspipe_des::Sim;

    #[test]
    fn records_spans_and_renders() {
        let tracker = Tracker::new();
        let t2 = tracker.clone();
        let mut sim = Sim::new();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            t2.stage_start(ctx, "sort");
            ctx.sleep(SimDuration::from_secs(3)).await;
            t2.note(ctx, "sort", "planner picked W=13");
            ctx.sleep(SimDuration::from_secs(2)).await;
            t2.stage_end(ctx, "sort");
            t2.stage_start(ctx, "encode");
            ctx.sleep(SimDuration::from_secs(1)).await;
            t2.stage_end(ctx, "encode");
        });
        sim.run().expect("sim ok");
        let spans = tracker.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, "sort");
        assert_eq!(spans[0].duration(), SimDuration::from_secs(5));
        assert_eq!(spans[1].stage, "encode");
        assert_eq!(spans[1].duration(), SimDuration::from_secs(1));
        let rendered = tracker.render();
        assert!(rendered.contains("sort"));
        assert!(rendered.contains("planner picked W=13"));
        assert!(rendered.contains("finished"));
        assert_eq!(tracker.events().len(), 5);
    }

    #[test]
    fn unfinished_stage_has_no_span() {
        let tracker = Tracker::new();
        let t2 = tracker.clone();
        let mut sim = Sim::new();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            t2.stage_start(ctx, "sort");
        });
        sim.run().expect("sim ok");
        assert!(tracker.spans().is_empty());
    }

    #[test]
    fn stage_spans_land_in_a_shared_sink() {
        let sink = TraceSink::recording();
        let run = sink.span_start(
            Category::Run,
            "run",
            "driver",
            "driver",
            SpanId::NONE,
            SimTime::ZERO,
        );
        let tracker = Tracker::with_sink(sink.clone(), run);
        let t2 = tracker.clone();
        let mut sim = Sim::new();
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            t2.stage_start(ctx, "sort");
            ctx.sleep(SimDuration::from_secs(1)).await;
            t2.stage_end(ctx, "sort");
        });
        sim.run().expect("sim ok");
        let data = sink.snapshot();
        let stage = data
            .spans
            .iter()
            .find(|s| s.category == Category::Stage)
            .expect("stage span recorded");
        assert_eq!(stage.parent, Some(run));
        assert_eq!(tracker.spans().len(), 1);
    }
}

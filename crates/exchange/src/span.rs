//! The trace span of one exchange request, shared by the relay and
//! direct backends.

use faaspipe_des::Ctx;
use faaspipe_trace::{Category, SpanId, TraceSink};

/// Opens a [`Category::StoreRequest`] span named `op` on `track`, in
/// the caller's `tag` lane and under its current span, keyed
/// `{prefix}/{map:05}/{part:05}` by `key = (prefix, map, part)`.
/// Returns [`SpanId::NONE`] when tracing is off.
pub(crate) fn request_begin(
    trace: &TraceSink,
    ctx: &Ctx,
    op: &'static str,
    track: &'static str,
    tag: &str,
    (prefix, map, part): (&str, usize, usize),
) -> SpanId {
    if !trace.is_enabled() {
        return SpanId::NONE;
    }
    let parent = trace.current(ctx.pid());
    let span = trace.span_start(Category::StoreRequest, op, track, tag, parent, ctx.now());
    trace.attr(span, "key", format!("{}/{:05}/{:05}", prefix, map, part));
    span
}

/// Closes a span opened by [`request_begin`], recording the bytes it
/// moved (when any) and whether it failed.
pub(crate) fn request_end(trace: &TraceSink, ctx: &Ctx, span: SpanId, bytes: u64, failed: bool) {
    if span.is_none() {
        return;
    }
    if bytes > 0 {
        trace.attr(span, "bytes", bytes);
    }
    if failed {
        trace.attr(span, "failed", true);
    }
    trace.span_end(span, ctx.now());
}

//! The trace spans of one exchange request and of the bytes it moves,
//! shared by the relay and direct backends.

use faaspipe_des::{ByteSize, Ctx, LinkId};
use faaspipe_trace::{Category, SpanId, TraceSink};

use crate::api::ExchangeEnv;

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

/// Moves `wire` scaled bytes over the caller's `env.host_links` plus
/// `peer` (the relay's or the sender's NIC) on the fluid-flow network,
/// recording an `xfer` [`Category::Flow`] span on `track`, in the
/// caller's lane and under the `request` span.
pub(crate) async fn transfer(
    trace: &TraceSink,
    ctx: &Ctx,
    track: &'static str,
    env: &ExchangeEnv,
    peer: Option<LinkId>,
    wire: u64,
    request: SpanId,
) {
    let mut links = env.host_links.clone();
    links.extend(peer);
    let flow = if trace.is_enabled() {
        let flow = trace.span_start(Category::Flow, "xfer", track, &env.tag, request, ctx.now());
        trace.attr(flow, "wire_bytes", wire);
        flow
    } else {
        SpanId::NONE
    };
    ctx.transfer(ByteSize::new(wire), &links).await;
    if !flow.is_none() {
        trace.span_end(flow, ctx.now());
    }
}

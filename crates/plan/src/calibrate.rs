//! Fitting [`ModelParams`] from traced probe runs.
//!
//! The calibrator consumes `faaspipe-trace` snapshots of a handful of
//! cheap, small probe runs plus the workload shape each probe ran
//! ([`ProbeSpec`]), and fits every parameter it has evidence for:
//!
//! - **start classes**: cold/warm start latencies are the mean durations
//!   of the platform's `ColdStart`/`WarmStart` spans (VM provisioning
//!   spans are split out separately);
//! - **orchestration**: mean duration of `Orchestration` spans;
//! - **store latency + bandwidth**: an ordinary least-squares fit of
//!   request duration against wire bytes over `StoreRequest` spans —
//!   intercept is the first-byte latency, slope the inverse effective
//!   per-connection bandwidth. Only probes with `io_concurrency == 1`
//!   feed the fit, so windowed flows sharing one connection cannot
//!   inflate the slope;
//! - **compute rates**: effective wire-bytes/sec by phase, from the
//!   `Compute` spans grouped under each invocation and the known byte
//!   counts of the probe workload. Map invocations interleave chunk
//!   sorts with one final partition pass; the last compute burst by
//!   start time is the partition, everything before it is sort;
//! - **encode output ratio**: traced archive PUT bytes over run GET
//!   bytes in the encode stage;
//! - **relay provisioning**: mean duration of `vm-provision` spans;
//! - **relay NIC**: the peak aggregate throughput over concurrently
//!   active relay `xfer` flows — but only from probes whose fleet can
//!   saturate the relay (`W · fn_nic ≥ relay_nic`); an unsaturated
//!   probe observes the functions' NICs, not the relay's, and must
//!   inherit the default;
//! - **relay memory + disk**: when a probe overflows the relay
//!   (`*.spilled_bytes` counter is non-zero), the capacity is the peak
//!   of the `*.mem_bytes` gauge and the disk bandwidth comes from the
//!   `spilled`-marked request spans' duration residual after the wire
//!   flow and request latency are subtracted;
//! - **direct handshake**: the minimum residual of a direct `STREAM`
//!   span over its nested `xfer` flow — the minimum, because any
//!   rendezvous polling only ever adds time on top of the handshake.
//!
//! Parameters with no evidence in any probe keep their `defaults`
//! values, and [`CalibrationEvidence`] records exactly how many samples
//! backed each fit so E19 (and a skeptical reader of
//! `results/calibration.json`) can tell fitted from inherited numbers.
//!
//! Probe runs are pure functions of their seed, spans are visited in
//! creation order, and every accumulation is order-stable — so the same
//! probes always produce the same `Calibration`, byte-for-byte identical
//! once serialized (the determinism test in `tests/planner.rs` checks
//! precisely this). The probe runs themselves may execute concurrently
//! (each is a shared-nothing sim; E19 drives them through
//! `faaspipe-sweep`): the calibrator only sees the finished
//! `ProbeRun` slice, and because that slice arrives in submission
//! order regardless of which probe finished first, the fit — and
//! `results/calibration.json` — is identical at every job count.

use faaspipe_trace::{Category, Span, SpanId, TraceData, Value};
use std::collections::HashMap;

use crate::model::ModelParams;

/// The workload shape one probe ran with — the known byte counts the
/// compute-rate fits divide by.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSpec {
    /// Human-readable probe name (lands in the evidence report).
    pub label: String,
    /// Sort worker count W of the probe.
    pub workers: usize,
    /// I/O window K of the probe.
    pub io_concurrency: usize,
    /// Total modelled (wire) bytes the probe sorted.
    pub data_bytes: f64,
    /// Number of staged input objects.
    pub input_chunks: usize,
    /// Wire bytes one sample-phase range read fetched.
    pub sample_read_bytes: f64,
}

faaspipe_json::json_object! {
    ProbeSpec {
        req label,
        req workers,
        req io_concurrency,
        req data_bytes,
        req input_chunks,
        req sample_read_bytes,
    }
}

/// One traced probe: its workload shape and the recorded span data.
#[derive(Debug, Clone, Copy)]
pub struct ProbeRun<'a> {
    /// What the probe ran.
    pub spec: &'a ProbeSpec,
    /// What the simulator recorded.
    pub trace: &'a TraceData,
}

/// Sample counts behind each fitted parameter — zero means the
/// corresponding [`ModelParams`] field kept its default.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CalibrationEvidence {
    /// Probe runs consumed.
    pub probes: usize,
    /// Container cold starts averaged into `cold_start_s`.
    pub cold_starts: usize,
    /// Warm pickups averaged into `warm_start_s`.
    pub warm_starts: usize,
    /// Orchestration gaps averaged into `orchestration_s`.
    pub orchestrations: usize,
    /// Store requests in the latency/bandwidth least-squares fit.
    pub store_requests: usize,
    /// Sample-phase compute bursts behind `parse_bps`.
    pub parse_bursts: usize,
    /// Map-phase sort bursts behind `sort_bps`.
    pub sort_bursts: usize,
    /// Map-phase partition bursts behind `partition_bps`.
    pub partition_bursts: usize,
    /// Reduce-phase merge bursts behind `merge_bps`.
    pub merge_bursts: usize,
    /// Encode bursts behind `encode_bps`.
    pub encode_bursts: usize,
    /// Encode-stage PUT/GET pairs behind `encode_output_ratio`.
    pub encode_transfers: usize,
    /// VM provisioning delays averaged into `relay_provision_s`.
    pub vm_provisions: usize,
    /// Relay `xfer` flows (from saturation-capable probes) behind
    /// `relay_nic_bps`.
    pub relay_flows: usize,
    /// Spilled relay requests behind `relay_mem_bytes` and
    /// `relay_disk_bps`.
    pub relay_spills: usize,
    /// Direct STREAM/flow pairs behind `direct_handshake_s`.
    pub direct_handshakes: usize,
}

faaspipe_json::json_object! {
    CalibrationEvidence {
        req probes,
        req cold_starts,
        req warm_starts,
        req orchestrations,
        req store_requests,
        req parse_bursts,
        req sort_bursts,
        req partition_bursts,
        req merge_bursts,
        req encode_bursts,
        req encode_transfers,
        req vm_provisions,
        req relay_flows,
        req relay_spills,
        req direct_handshakes,
    }
}

/// A fitted parameter set plus the evidence that backs it. Serializes
/// to `results/calibration.json` via `faaspipe_json::to_string_pretty`.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// The fitted (or default-inherited) model parameters.
    pub params: ModelParams,
    /// How many trace samples backed each fit.
    pub evidence: CalibrationEvidence,
}

faaspipe_json::json_object! {
    Calibration {
        req params,
        req evidence,
    }
}

/// Running mean that stays deterministic under in-order accumulation.
#[derive(Default)]
struct Mean {
    sum: f64,
    n: usize,
}

impl Mean {
    fn push(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    fn get(&self, fallback: f64) -> f64 {
        if self.n == 0 {
            fallback
        } else {
            self.sum / self.n as f64
        }
    }
}

/// Bytes-vs-seconds accumulator for an effective-throughput fit.
#[derive(Default)]
struct Rate {
    bytes: f64,
    secs: f64,
    n: usize,
}

impl Rate {
    fn push(&mut self, bytes: f64, secs: f64) {
        self.bytes += bytes;
        self.secs += secs;
        self.n += 1;
    }

    fn get(&self, fallback: f64) -> f64 {
        if self.n == 0 || self.secs <= 0.0 || self.bytes <= 0.0 {
            fallback
        } else {
            self.bytes / self.secs
        }
    }
}

fn attr_u64(span: &Span, key: &str) -> Option<u64> {
    span.attrs
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            Value::U64(u) => Some(*u),
            Value::I64(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        })
}

fn attr_str<'a>(span: &'a Span, key: &str) -> Option<&'a str> {
    span.attrs
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
}

fn attr_bool(span: &Span, key: &str) -> bool {
    span.attrs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| matches!(v, Value::Bool(true)))
        .unwrap_or(false)
}

fn duration_s(span: &Span) -> Option<f64> {
    span.duration().map(|d| d.as_secs_f64())
}

/// Which pipeline phase an invocation tag belongs to, by suffix.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PhaseTag {
    Sample,
    Map,
    Reduce,
    Encode,
}

fn phase_of(tag: &str) -> Option<PhaseTag> {
    if tag.ends_with("/sample") {
        Some(PhaseTag::Sample)
    } else if tag.ends_with("/map") {
        Some(PhaseTag::Map)
    } else if tag.ends_with("/reduce") {
        Some(PhaseTag::Reduce)
    } else if tag.ends_with("/enc") {
        Some(PhaseTag::Encode)
    } else {
        None
    }
}

/// Fits model parameters from `probes`, inheriting `defaults` for every
/// parameter without trace evidence (the relay request latency and the
/// prices never have probe evidence and always pass through; the relay
/// NIC/memory/disk and the direct handshake are
/// fitted when the probe set includes relay/direct runs that exercise
/// them — see the module docs for the saturation and spill
/// requirements).
pub fn calibrate(probes: &[ProbeRun<'_>], defaults: &ModelParams) -> Calibration {
    let mut ev = CalibrationEvidence {
        probes: probes.len(),
        ..CalibrationEvidence::default()
    };
    let mut cold = Mean::default();
    let mut warm = Mean::default();
    let mut orch = Mean::default();
    let mut provision = Mean::default();
    let mut parse = Rate::default();
    let mut sort = Rate::default();
    let mut partition = Rate::default();
    let mut merge = Rate::default();
    let mut encode = Rate::default();
    // (bytes, secs) pairs for the store least-squares fit.
    let mut store_points: Vec<(f64, f64)> = Vec::new();
    let mut enc_get_bytes = 0.0;
    let mut enc_put_bytes = 0.0;
    // Peak aggregate relay throughput over saturation-capable probes.
    let mut relay_nic_peak = 0.0f64;
    // Peak relay memory gauge in probes that actually spilled.
    let mut relay_mem_peak = 0.0f64;
    let mut relay_disk = Rate::default();
    // Running minimum STREAM-minus-flow residual (rendezvous polling
    // only ever adds on top of the handshake, so min is the handshake).
    let mut direct_hs: Option<f64> = None;

    for probe in probes {
        let spec = probe.spec;
        let spans = &probe.trace.spans;
        // Invocation id → phase, resolved from the "tag" attribute.
        let mut inv_phase: HashMap<SpanId, PhaseTag> = HashMap::new();
        // Exchange request span → its nested wire-flow duration.
        let mut flow_dur: HashMap<SpanId, f64> = HashMap::new();
        // (start_s, end_s, wire_bytes) of relay wire flows, span order.
        let mut relay_flows: Vec<(f64, f64, f64)> = Vec::new();
        for span in spans {
            match span.category {
                Category::Invocation => {
                    if let Some(phase) = attr_str(span, "tag").and_then(phase_of) {
                        inv_phase.insert(span.id, phase);
                    }
                }
                Category::Flow if span.name == "xfer" => {
                    let Some(d) = duration_s(span) else { continue };
                    if let Some(parent) = span.parent {
                        flow_dur.insert(parent, d);
                    }
                    if span.track == "relay" && d > 0.0 {
                        if let Some(wire) = attr_u64(span, "wire_bytes") {
                            let start = span.start.as_secs_f64();
                            relay_flows.push((start, start + d, wire as f64));
                        }
                    }
                }
                _ => {}
            }
        }

        // Map invocations interleave per-chunk sort bursts with one
        // final partition burst; collect each map invocation's compute
        // spans so the last-by-start can be split off as the partition.
        let mut map_bursts: HashMap<SpanId, Vec<&Span>> = HashMap::new();
        // Ordered list of map parents, for deterministic iteration.
        let mut map_order: Vec<SpanId> = Vec::new();

        let per_fn_bytes = spec.data_bytes / spec.workers.max(1) as f64;
        let reads_per_fn = (spec.input_chunks.max(1) as f64 / spec.workers.max(1) as f64).ceil();

        for span in spans {
            match span.category {
                Category::ColdStart => {
                    if let Some(d) = duration_s(span) {
                        if span.name == "vm-provision" {
                            provision.push(d);
                            ev.vm_provisions += 1;
                        } else {
                            cold.push(d);
                            ev.cold_starts += 1;
                        }
                    }
                }
                Category::WarmStart => {
                    if let Some(d) = duration_s(span) {
                        warm.push(d);
                        ev.warm_starts += 1;
                    }
                }
                Category::Orchestration => {
                    // The tracker logs zero-width note spans on the same
                    // category; only real dispatch sleeps carry width.
                    if let Some(d) = duration_s(span) {
                        if d > 0.0 {
                            orch.push(d);
                            ev.orchestrations += 1;
                        }
                    }
                }
                Category::StoreRequest if span.track == "store" => {
                    let bytes = (attr_u64(span, "bytes_in").unwrap_or(0)
                        + attr_u64(span, "bytes_out").unwrap_or(0))
                        as f64;
                    if spec.io_concurrency <= 1 {
                        if let Some(d) = duration_s(span) {
                            store_points.push((bytes, d));
                        }
                    }
                    // Encode-stage transfers also feed the output ratio.
                    let lane_is_encode = span.lane.ends_with("/enc");
                    if lane_is_encode {
                        if span.name.starts_with("GET") {
                            enc_get_bytes += attr_u64(span, "bytes_out").unwrap_or(0) as f64;
                            ev.encode_transfers += 1;
                        } else if span.name.starts_with("PUT") {
                            enc_put_bytes += attr_u64(span, "bytes_in").unwrap_or(0) as f64;
                        }
                    }
                }
                // Relay/direct data-plane requests run on their own
                // tracks; their spans fit the relay disk and the direct
                // handshake instead of the store line.
                Category::StoreRequest if span.track == "relay" => {
                    if !attr_bool(span, "spilled") || attr_bool(span, "failed") {
                        continue;
                    }
                    let Some(d) = duration_s(span) else { continue };
                    let Some(&flow) = flow_dur.get(&span.id) else {
                        continue;
                    };
                    let wire = attr_u64(span, "bytes").unwrap_or(0) as f64;
                    // Span = request latency + wire flow + disk pass.
                    let disk_s = d - flow - defaults.relay_latency_s;
                    if wire > 0.0 && disk_s > 0.0 {
                        relay_disk.push(wire, disk_s);
                        ev.relay_spills += 1;
                    }
                }
                Category::StoreRequest if span.track == "direct" => {
                    if span.name != "STREAM" || attr_bool(span, "failed") {
                        continue;
                    }
                    let Some(d) = duration_s(span) else { continue };
                    let Some(&flow) = flow_dur.get(&span.id) else {
                        continue;
                    };
                    let residual = d - flow;
                    if residual >= 0.0 {
                        direct_hs = Some(direct_hs.map_or(residual, |m| m.min(residual)));
                        ev.direct_handshakes += 1;
                    }
                }
                Category::Compute => {
                    let Some(parent) = span.parent else { continue };
                    let Some(&phase) = inv_phase.get(&parent) else {
                        continue;
                    };
                    let Some(d) = duration_s(span) else { continue };
                    match phase {
                        PhaseTag::Sample => {
                            parse.push(reads_per_fn * spec.sample_read_bytes, d);
                            ev.parse_bursts += 1;
                        }
                        PhaseTag::Map => {
                            let entry = map_bursts.entry(parent).or_default();
                            if entry.is_empty() {
                                map_order.push(parent);
                            }
                            entry.push(span);
                        }
                        PhaseTag::Reduce => {
                            merge.push(per_fn_bytes, d);
                            ev.merge_bursts += 1;
                        }
                        PhaseTag::Encode => {
                            // Per-burst bytes are attributed below from
                            // traced GET sizes; here only the time sums.
                            encode.push(0.0, d);
                            ev.encode_bursts += 1;
                        }
                    }
                }
                _ => {}
            }
        }

        // Split each map invocation's bursts: last-by-start is the
        // partition pass over the function's full assignment, the rest
        // together sorted the same bytes chunk by chunk.
        for parent in map_order {
            let mut bursts = map_bursts.remove(&parent).unwrap_or_default();
            if bursts.is_empty() {
                continue;
            }
            bursts.sort_by_key(|s| s.start);
            let last = bursts.pop().expect("non-empty");
            if let Some(d) = duration_s(last) {
                partition.push(per_fn_bytes, d);
                ev.partition_bursts += 1;
            }
            let sort_secs: f64 = bursts.iter().filter_map(|s| duration_s(s)).sum();
            if sort_secs > 0.0 {
                sort.push(per_fn_bytes, sort_secs);
                ev.sort_bursts += bursts.len();
            }
        }

        // Relay NIC: peak aggregate throughput over a busy period — a
        // maximal chain of time-overlapping relay flows. All its bytes
        // crossed the relay NIC within the period, so bytes/duration
        // never exceeds the capacity, and reaches it when the period is
        // saturated. Only a fleet whose aggregate function NICs exceed
        // the relay NIC can saturate it — an unsaturated probe would
        // "fit" the functions' NICs instead, so it contributes nothing.
        let can_saturate =
            spec.workers.max(1) as f64 * defaults.fn_nic_bps >= defaults.relay_nic_bps;
        if can_saturate && !relay_flows.is_empty() {
            // Flows are in span-creation order, i.e. sorted by start.
            let (mut s0, mut e0, mut bytes) = (relay_flows[0].0, relay_flows[0].1, 0.0f64);
            let mut flush = |s0: f64, e0: f64, bytes: f64| {
                if e0 > s0 && bytes > 0.0 {
                    relay_nic_peak = relay_nic_peak.max(bytes / (e0 - s0));
                }
            };
            for &(s, e, b) in &relay_flows {
                if s > e0 {
                    flush(s0, e0, bytes);
                    s0 = s;
                    e0 = e;
                    bytes = 0.0;
                }
                e0 = e0.max(e);
                bytes += b;
            }
            flush(s0, e0, bytes);
            ev.relay_flows += relay_flows.len();
        }

        // Relay memory: once a shard spilled, its memory gauge peaked at
        // (just under) the configured capacity.
        for spilled in &probe.trace.counters {
            let Some(label) = spilled.name.strip_suffix(".spilled_bytes") else {
                continue;
            };
            if spilled.last_value() <= 0.0 {
                continue;
            }
            let mem_name = format!("{}.mem_bytes", label);
            if let Some(mem) = probe.trace.counters.iter().find(|c| c.name == mem_name) {
                let peak = mem.points.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
                relay_mem_peak = relay_mem_peak.max(peak);
            }
        }
    }

    // Encode rate: total encode compute time vs total traced GET bytes.
    let encode_bps = if encode.n > 0 && encode.secs > 0.0 && enc_get_bytes > 0.0 {
        enc_get_bytes / encode.secs
    } else {
        defaults.encode_bps
    };
    let encode_output_ratio = if enc_get_bytes > 0.0 && enc_put_bytes > 0.0 {
        enc_put_bytes / enc_get_bytes
    } else {
        defaults.encode_output_ratio
    };

    // Store least-squares: duration = latency + bytes / bandwidth.
    let (store_latency_s, store_conn_bps) = fit_store(
        &store_points,
        defaults.store_latency_s,
        defaults.store_conn_bps,
    );
    ev.store_requests = store_points.len();

    let params = ModelParams {
        cold_start_s: cold.get(defaults.cold_start_s),
        warm_start_s: warm.get(defaults.warm_start_s),
        orchestration_s: orch.get(defaults.orchestration_s),
        store_latency_s,
        store_conn_bps,
        store_agg_bps: defaults.store_agg_bps,
        store_ops_per_sec: defaults.store_ops_per_sec,
        fn_nic_bps: defaults.fn_nic_bps,
        relay_latency_s: defaults.relay_latency_s,
        relay_nic_bps: if relay_nic_peak > 0.0 {
            relay_nic_peak
        } else {
            defaults.relay_nic_bps
        },
        relay_mem_bytes: if relay_mem_peak > 0.0 {
            relay_mem_peak
        } else {
            defaults.relay_mem_bytes
        },
        relay_disk_bps: relay_disk.get(defaults.relay_disk_bps),
        relay_provision_s: provision.get(defaults.relay_provision_s),
        direct_handshake_s: direct_hs.unwrap_or(defaults.direct_handshake_s),
        parse_bps: parse.get(defaults.parse_bps),
        sort_bps: sort.get(defaults.sort_bps),
        partition_bps: partition.get(defaults.partition_bps),
        merge_bps: merge.get(defaults.merge_bps),
        encode_bps,
        encode_output_ratio,
        // Prices are not fitted: they come from the book `defaults`
        // was derived with.
        fn_second_dollars: defaults.fn_second_dollars,
        class_a_per_k_dollars: defaults.class_a_per_k_dollars,
        class_b_per_k_dollars: defaults.class_b_per_k_dollars,
        relay_hour_dollars: defaults.relay_hour_dollars,
    };
    Calibration {
        params,
        evidence: ev,
    }
}

/// Ordinary least squares of `secs = latency + bytes / bandwidth` over
/// the collected store requests. Falls back to the defaults when the
/// points are too few, degenerate (all one size), or the fit comes out
/// non-physical (non-positive slope or negative intercept).
fn fit_store(points: &[(f64, f64)], default_lat: f64, default_bps: f64) -> (f64, f64) {
    if points.len() < 2 {
        return (default_lat, default_bps);
    }
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (x, y) in points {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
    }
    if sxx <= 0.0 {
        return (default_lat, default_bps);
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    if slope <= 0.0 || intercept < 0.0 {
        return (default_lat, default_bps);
    }
    (intercept, 1.0 / slope)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faaspipe_des::{SimDuration, SimTime};

    fn span(
        id: u64,
        parent: Option<u64>,
        category: Category,
        name: &str,
        lane: &str,
        start_s: u64,
        dur_ms: u64,
    ) -> Span {
        let start = SimTime::from_nanos(start_s * 1_000_000_000);
        Span {
            id: SpanId::from_u64(id),
            parent: parent.map(SpanId::from_u64),
            category,
            name: name.to_string(),
            track: if category == Category::StoreRequest {
                "store".to_string()
            } else {
                "faas".to_string()
            },
            lane: lane.to_string(),
            start,
            end: Some(start + SimDuration::from_millis(dur_ms)),
            attrs: Vec::new(),
        }
    }

    fn defaults() -> ModelParams {
        ModelParams::default()
    }

    fn spec() -> ProbeSpec {
        ProbeSpec {
            label: "unit".to_string(),
            workers: 2,
            io_concurrency: 1,
            data_bytes: 2.0e9,
            input_chunks: 2,
            sample_read_bytes: 1.0e6,
        }
    }

    #[test]
    fn empty_probes_inherit_defaults() {
        let d = defaults();
        let cal = calibrate(&[], &d);
        assert_eq!(cal.params, d);
        assert_eq!(cal.evidence, CalibrationEvidence::default());
    }

    #[test]
    fn start_classes_are_mean_span_durations() {
        let mut trace = TraceData::default();
        trace.spans.push(span(
            1,
            None,
            Category::ColdStart,
            "cold-start",
            "inv-1",
            0,
            400,
        ));
        trace.spans.push(span(
            2,
            None,
            Category::ColdStart,
            "cold-start",
            "inv-2",
            1,
            600,
        ));
        trace.spans.push(span(
            3,
            None,
            Category::WarmStart,
            "warm-start",
            "inv-3",
            2,
            30,
        ));
        trace.spans.push(span(
            4,
            None,
            Category::Orchestration,
            "orchestrate",
            "driver",
            3,
            7500,
        ));
        trace.spans.push(span(
            5,
            None,
            Category::ColdStart,
            "vm-provision",
            "vm-1",
            4,
            40_000,
        ));
        let s = spec();
        let cal = calibrate(
            &[ProbeRun {
                spec: &s,
                trace: &trace,
            }],
            &defaults(),
        );
        assert!((cal.params.cold_start_s - 0.5).abs() < 1e-9);
        assert!((cal.params.warm_start_s - 0.03).abs() < 1e-9);
        assert!((cal.params.orchestration_s - 7.5).abs() < 1e-9);
        assert!((cal.params.relay_provision_s - 40.0).abs() < 1e-9);
        assert_eq!(cal.evidence.cold_starts, 2);
        assert_eq!(cal.evidence.vm_provisions, 1);
    }

    #[test]
    fn map_bursts_split_into_sort_and_partition() {
        let mut trace = TraceData::default();
        let mut inv = span(1, None, Category::Invocation, "map", "inv-1", 0, 0);
        inv.attrs.push(("tag".to_string(), Value::from("sort/map")));
        trace.spans.push(inv);
        // Two chunk sorts then one partition pass; per-fn bytes = 1e9.
        trace.spans.push(span(
            2,
            Some(1),
            Category::Compute,
            "compute",
            "inv-1",
            1,
            4_000,
        ));
        trace.spans.push(span(
            3,
            Some(1),
            Category::Compute,
            "compute",
            "inv-1",
            6,
            4_000,
        ));
        trace.spans.push(span(
            4,
            Some(1),
            Category::Compute,
            "compute",
            "inv-1",
            11,
            2_000,
        ));
        let s = spec();
        let cal = calibrate(
            &[ProbeRun {
                spec: &s,
                trace: &trace,
            }],
            &defaults(),
        );
        assert_eq!(cal.evidence.sort_bursts, 2);
        assert_eq!(cal.evidence.partition_bursts, 1);
        // 1e9 bytes / 8 s of sorting, 1e9 / 2 s of partitioning.
        assert!((cal.params.sort_bps - 1.25e8).abs() / 1.25e8 < 1e-9);
        assert!((cal.params.partition_bps - 5.0e8).abs() / 5.0e8 < 1e-9);
    }

    #[test]
    fn store_fit_recovers_latency_and_bandwidth() {
        let mut trace = TraceData::default();
        // duration = 0.02 + bytes / 1e8, exactly linear.
        for (i, bytes) in [1_000_000u64, 50_000_000, 200_000_000].iter().enumerate() {
            let mut s = span(
                i as u64 + 1,
                None,
                Category::StoreRequest,
                "GET x",
                "sort/map",
                i as u64,
                20 + bytes / 100_000,
            );
            s.attrs.push(("bytes_out".to_string(), Value::U64(*bytes)));
            trace.spans.push(s);
        }
        let s = spec();
        let cal = calibrate(
            &[ProbeRun {
                spec: &s,
                trace: &trace,
            }],
            &defaults(),
        );
        assert_eq!(cal.evidence.store_requests, 3);
        assert!((cal.params.store_latency_s - 0.02).abs() < 1e-6);
        assert!((cal.params.store_conn_bps - 1.0e8).abs() / 1.0e8 < 1e-6);
    }

    fn span_on(
        track: &str,
        id: u64,
        parent: Option<u64>,
        category: Category,
        name: &str,
        start_ms: u64,
        dur_ms: u64,
    ) -> Span {
        let mut s = span(id, parent, category, name, "sort/reduce", 0, dur_ms);
        s.start = SimTime::from_nanos(start_ms * 1_000_000);
        s.end = Some(s.start + SimDuration::from_millis(dur_ms));
        s.track = track.to_string();
        s
    }

    #[test]
    fn direct_handshake_is_the_minimum_stream_residual() {
        let mut trace = TraceData::default();
        // STREAM = 150 ms with a 100 ms nested flow → 50 ms residual.
        trace.spans.push(span_on(
            "direct",
            1,
            None,
            Category::StoreRequest,
            "STREAM",
            0,
            150,
        ));
        let mut flow = span_on("direct", 2, Some(1), Category::Flow, "xfer", 50, 100);
        flow.attrs
            .push(("wire_bytes".to_string(), Value::U64(1_000_000)));
        trace.spans.push(flow);
        // A second STREAM that caught a 300 ms rendezvous poll on top —
        // polling only adds, so the fit must keep the minimum.
        trace.spans.push(span_on(
            "direct",
            3,
            None,
            Category::StoreRequest,
            "STREAM",
            200,
            450,
        ));
        let mut flow2 = span_on("direct", 4, Some(3), Category::Flow, "xfer", 550, 100);
        flow2
            .attrs
            .push(("wire_bytes".to_string(), Value::U64(1_000_000)));
        trace.spans.push(flow2);
        let s = spec();
        let cal = calibrate(
            &[ProbeRun {
                spec: &s,
                trace: &trace,
            }],
            &defaults(),
        );
        assert_eq!(cal.evidence.direct_handshakes, 2);
        assert!((cal.params.direct_handshake_s - 0.05).abs() < 1e-9);
    }

    #[test]
    fn relay_nic_fits_only_from_saturation_capable_probes() {
        let d = defaults();
        let mut trace = TraceData::default();
        // Two relay flows fully overlapping in time, 100 MB over 1 s
        // each → 200 MB/s aggregate at every midpoint.
        for id in [1u64, 2] {
            let mut flow = span_on("relay", id, None, Category::Flow, "xfer", 0, 1_000);
            flow.attrs
                .push(("wire_bytes".to_string(), Value::U64(100_000_000)));
            trace.spans.push(flow);
        }
        // W=2 cannot saturate the default 2 GB/s relay NIC: inherit.
        let mut small = spec();
        small.workers = 2;
        let cal = calibrate(
            &[ProbeRun {
                spec: &small,
                trace: &trace,
            }],
            &d,
        );
        assert_eq!(cal.evidence.relay_flows, 0);
        assert_eq!(cal.params.relay_nic_bps, d.relay_nic_bps);
        // A wide-enough fleet makes the same flows valid evidence.
        let mut wide = spec();
        wide.workers = 64;
        let cal = calibrate(
            &[ProbeRun {
                spec: &wide,
                trace: &trace,
            }],
            &d,
        );
        assert_eq!(cal.evidence.relay_flows, 2);
        assert!((cal.params.relay_nic_bps - 2.0e8).abs() / 2.0e8 < 1e-9);
    }

    #[test]
    fn relay_spill_fits_memory_capacity_and_disk_bandwidth() {
        use faaspipe_trace::{CounterKind, CounterSeries};
        let d = defaults();
        let mut trace = TraceData::default();
        // A spilled GET: latency + 2 s disk + 1 s flow. 700 MB wire →
        // disk at 350 MB/s.
        let mut get = span_on(
            "relay",
            1,
            None,
            Category::StoreRequest,
            "GET",
            0,
            3_000 + (d.relay_latency_s * 1e3) as u64,
        );
        get.attrs
            .push(("bytes".to_string(), Value::U64(700_000_000)));
        get.attrs.push(("spilled".to_string(), Value::Bool(true)));
        trace.spans.push(get);
        let mut flow = span_on("relay", 2, Some(1), Category::Flow, "xfer", 2_100, 1_000);
        flow.attrs
            .push(("wire_bytes".to_string(), Value::U64(700_000_000)));
        trace.spans.push(flow);
        // The shard's gauges: memory peaked at 1 GB before spilling.
        trace.counters.push(CounterSeries {
            name: "relay.mem_bytes".to_string(),
            kind: CounterKind::Gauge,
            points: vec![
                (SimTime::from_nanos(0), 4.0e8),
                (SimTime::from_nanos(1), 1.0e9),
            ],
        });
        trace.counters.push(CounterSeries {
            name: "relay.spilled_bytes".to_string(),
            kind: CounterKind::Cumulative,
            points: vec![(SimTime::from_nanos(1), 7.0e8)],
        });
        let s = spec();
        let cal = calibrate(
            &[ProbeRun {
                spec: &s,
                trace: &trace,
            }],
            &d,
        );
        assert_eq!(cal.evidence.relay_spills, 1);
        assert!((cal.params.relay_mem_bytes - 1.0e9).abs() < 1.0);
        assert!((cal.params.relay_disk_bps - 3.5e8).abs() / 3.5e8 < 1e-6);
    }

    #[test]
    fn unspilled_relay_probes_inherit_memory_and_disk_defaults() {
        use faaspipe_trace::{CounterKind, CounterSeries};
        let d = defaults();
        let mut trace = TraceData::default();
        trace.counters.push(CounterSeries {
            name: "relay.mem_bytes".to_string(),
            kind: CounterKind::Gauge,
            points: vec![(SimTime::from_nanos(0), 5.0e8)],
        });
        let s = spec();
        let cal = calibrate(
            &[ProbeRun {
                spec: &s,
                trace: &trace,
            }],
            &d,
        );
        assert_eq!(cal.evidence.relay_spills, 0);
        assert_eq!(cal.params.relay_mem_bytes, d.relay_mem_bytes);
        assert_eq!(cal.params.relay_disk_bps, d.relay_disk_bps);
    }

    #[test]
    fn windowed_probes_are_excluded_from_the_store_fit() {
        let mut trace = TraceData::default();
        let mut s1 = span(1, None, Category::StoreRequest, "GET x", "sort/map", 0, 500);
        s1.attrs
            .push(("bytes_out".to_string(), Value::U64(1_000_000)));
        trace.spans.push(s1);
        let mut s = spec();
        s.io_concurrency = 4;
        let d = defaults();
        let cal = calibrate(
            &[ProbeRun {
                spec: &s,
                trace: &trace,
            }],
            &d,
        );
        assert_eq!(cal.evidence.store_requests, 0);
        assert_eq!(cal.params.store_latency_s, d.store_latency_s);
    }
}

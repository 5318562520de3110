//! The analytical cost/latency model.
//!
//! [`ModelParams::estimate`] produces a closed-form per-phase makespan
//! and bill for one candidate (W, K, backend, shards) configuration of
//! the serverless sort (+ optional encode tail). The equations mirror
//! the simulator's mechanics phase by phase — see DESIGN.md "Planner"
//! for the derivation — so a *calibrated* parameter set predicts
//! simulated makespans closely enough to rank configurations
//! (E19 validates model error ≤ 15% across the E15/E16/E17 grid).
//!
//! All bandwidth parameters are in **wire bytes/sec** (the modelled
//! scale, after `size_scale`), all latencies in seconds, and the
//! compute rates are *effective* throughputs — the CPU share of the
//! container memory class is already folded in, which is exactly what a
//! trace-fitted rate measures.

use faaspipe_exchange::{DirectConfig, ExchangeKind, RelayConfig};
use faaspipe_faas::FaasConfig;
use faaspipe_shuffle::{SortConfig, WorkModel};
use faaspipe_store::StoreConfig;

const MIB: f64 = 1024.0 * 1024.0;

/// Every parameter the model needs, fit by the calibrator
/// ([`mod@crate::calibrate`]) or derived from service configs
/// ([`ModelParams::from_configs`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    /// Container cold-start latency (seconds). Paid by the first
    /// invocation wave of every distinct function name.
    pub cold_start_s: f64,
    /// Warm-container pickup latency (seconds).
    pub warm_start_s: f64,
    /// Driver orchestration overhead per execution phase (seconds).
    pub orchestration_s: f64,
    /// Object-store first-byte latency per request (seconds).
    pub store_latency_s: f64,
    /// Per-connection store bandwidth cap (wire bytes/sec). All of a
    /// function's windowed requests share one connection link.
    pub store_conn_bps: f64,
    /// Store aggregate backbone bandwidth (wire bytes/sec), shared
    /// W-ways under fair sharing.
    pub store_agg_bps: f64,
    /// Store request-rate throttle (requests/sec across all callers).
    pub store_ops_per_sec: f64,
    /// Function container NIC bandwidth (wire bytes/sec); caps each
    /// function's aggregate transfer rate regardless of window depth.
    pub fn_nic_bps: f64,
    /// Relay request latency per operation (seconds).
    pub relay_latency_s: f64,
    /// Relay VM NIC bandwidth (wire bytes/sec), per shard.
    pub relay_nic_bps: f64,
    /// Relay in-memory capacity (wire bytes), per shard; intermediates
    /// past it spill to local disk.
    pub relay_mem_bytes: f64,
    /// Relay local-disk bandwidth for spilled bytes (wire bytes/sec).
    pub relay_disk_bps: f64,
    /// Relay VM provisioning delay (seconds); blocks `prepare` unless
    /// the backend pre-warms, in which case only the un-hidden residual
    /// surfaces at the first map-phase request.
    pub relay_provision_s: f64,
    /// Direct-streaming rendezvous handshake per partition (seconds).
    pub direct_handshake_s: f64,
    /// Effective sample-parse throughput (wire bytes/sec).
    pub parse_bps: f64,
    /// Effective map-sort throughput (wire bytes/sec).
    pub sort_bps: f64,
    /// Effective map-partition throughput (wire bytes/sec).
    pub partition_bps: f64,
    /// Effective reduce-merge throughput (wire bytes/sec).
    pub merge_bps: f64,
    /// Effective METHCOMP-encode throughput (wire bytes/sec).
    pub encode_bps: f64,
    /// Encode output ratio: archive bytes per input wire byte (< 1 when
    /// compression wins).
    pub encode_output_ratio: f64,
}

faaspipe_json::json_object! {
    ModelParams {
        req cold_start_s,
        req warm_start_s,
        req orchestration_s,
        req store_latency_s,
        req store_conn_bps,
        req store_agg_bps,
        req store_ops_per_sec,
        req fn_nic_bps,
        req relay_latency_s,
        req relay_nic_bps,
        req relay_mem_bytes,
        req relay_disk_bps,
        req relay_provision_s,
        req direct_handshake_s,
        req parse_bps,
        req sort_bps,
        req partition_bps,
        req merge_bps,
        req encode_bps,
        req encode_output_ratio,
    }
}

/// What the pipeline moves and computes: the per-stage shape the model
/// multiplies the parameters against.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Total modelled (wire) input bytes of the sort stage.
    pub data_bytes: f64,
    /// Number of staged input objects.
    pub input_chunks: usize,
    /// Wire bytes one sample-phase range read fetches (the physical
    /// `sample_bytes` cap times the size scale, clamped to the chunk).
    pub sample_read_bytes: f64,
    /// Encode-stage gang size downstream of the sort (0 = no encode
    /// tail in the objective).
    pub encode_workers: usize,
}

faaspipe_json::json_object! {
    Workload {
        req data_bytes,
        req input_chunks,
        req sample_read_bytes,
        req encode_workers,
    }
}

impl Workload {
    /// Sizes a sort stage of `data_bytes` wire bytes staged as
    /// `input_chunks` objects, at `size_scale` wire bytes per physical
    /// byte, feeding an encode gang of `encode_workers` (0 = none). The
    /// sample phase range-reads at most the sort's physical
    /// `sample_bytes` per chunk: on the wire that is the scaled cap,
    /// clamped to the mean chunk.
    pub fn new(
        data_bytes: f64,
        input_chunks: usize,
        size_scale: f64,
        encode_workers: usize,
    ) -> Workload {
        let chunk_wire = data_bytes / input_chunks.max(1) as f64;
        let sample_cap = SortConfig::default().sample_bytes as f64 * size_scale;
        Workload {
            data_bytes,
            input_chunks,
            sample_read_bytes: sample_cap.min(chunk_wire),
            encode_workers,
        }
    }
}

/// One concrete configuration the model can estimate: worker count,
/// per-function I/O window, and exchange backend (shard count and
/// pre-warm ride inside [`ExchangeKind::ShardedRelay`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Sort worker count W (mappers = reducers).
    pub workers: usize,
    /// Per-function I/O window K.
    pub io_concurrency: usize,
    /// Exchange backend. Must be concrete (never [`ExchangeKind::Auto`]).
    pub exchange: ExchangeKind,
}

/// The model's prediction for one candidate: per-phase seconds, the
/// end-to-end makespan, and an itemized bill.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Driver setup before the sample phase: input LIST + blocking
    /// relay provisioning (cold relays only).
    pub prepare_s: f64,
    /// Sample phase (orchestration + starts + ranged reads + parse).
    pub sample_s: f64,
    /// Map phase (download/sort overlap + partition + exchange write).
    pub map_s: f64,
    /// Reduce phase (windowed gather + merge + run PUT).
    pub reduce_s: f64,
    /// Encode tail (0 when the workload has no encode stage).
    pub encode_s: f64,
    /// End-to-end predicted makespan (sum of the above).
    pub makespan_s: f64,
    /// Predicted bill in dollars (functions + store requests + VMs).
    pub cost_dollars: f64,
}

/// Unit prices for the bill estimate. Defaults mirror the pricing used
/// by the cost report (`PriceBook`): IBM Cloud Functions GB-seconds,
/// COS class A/B requests, and the `bx2-8x32` hourly rate.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanPrices {
    /// Dollars per function GB-second.
    pub fn_gb_second: f64,
    /// Function memory in GB (converts busy-seconds to GB-seconds).
    pub fn_memory_gb: f64,
    /// Dollars per 1 000 class-A (mutating) store requests.
    pub class_a_per_k: f64,
    /// Dollars per 1 000 class-B (read) store requests.
    pub class_b_per_k: f64,
    /// Dollars per relay-VM hour.
    pub vm_per_hour: f64,
}

impl Default for PlanPrices {
    fn default() -> PlanPrices {
        PlanPrices {
            fn_gb_second: 0.000017,
            fn_memory_gb: 2.0,
            class_a_per_k: 0.005,
            class_b_per_k: 0.0004,
            vm_per_hour: 0.34,
        }
    }
}

/// `ceil(n / k)` in f64 for latency-amortization terms.
fn windows(n: f64, k: f64) -> f64 {
    (n / k.max(1.0)).ceil()
}

/// How many gather windows the direct exchange spends convoyed before
/// partition-size skew spreads the reducers over distinct senders.
/// Fitted on the E17 direct sweep (W ∈ {8, 32}, K ∈ {1..16}): the
/// implied desync horizon ranges 1.4–4.5 windows; 3 keeps every cell
/// within ±11% of the simulator.
const DIRECT_CONVOY_WINDOWS: f64 = 3.0;

impl Default for ModelParams {
    /// Parameters derived from every service's default configuration —
    /// the right baseline when no deployment-specific configs are at
    /// hand (tests, benches, documentation examples).
    fn default() -> ModelParams {
        ModelParams::from_configs(
            &StoreConfig::default(),
            &FaasConfig::default(),
            &RelayConfig::default(),
            &DirectConfig::default(),
            &WorkModel::default(),
        )
    }
}

impl ModelParams {
    /// Derives a parameter set from the service configurations and work
    /// model — the executor's fallback when no trace-fitted
    /// [`Calibration`](crate::Calibration) was supplied. `work` must
    /// carry the run's size scale so the effective compute rates come
    /// out in wire bytes/sec.
    pub fn from_configs(
        store: &StoreConfig,
        faas: &FaasConfig,
        relay: &RelayConfig,
        direct: &DirectConfig,
        work: &WorkModel,
    ) -> ModelParams {
        let cpu = faas.cpu_share();
        // WorkModel rates are MiB of *physical* bytes per second and the
        // charge multiplies by size_scale; in wire bytes the scale
        // cancels, so effective rate = MiB/s × cpu share.
        let eff = |mibps: f64| mibps * MIB * cpu;
        ModelParams {
            cold_start_s: faas.cold_start.as_secs_f64(),
            warm_start_s: faas.warm_start.as_secs_f64(),
            orchestration_s: 8.0,
            store_latency_s: store.first_byte_latency.as_secs_f64(),
            store_conn_bps: store.per_connection_bw.as_bytes_per_sec(),
            store_agg_bps: store.aggregate_bw.as_bytes_per_sec(),
            store_ops_per_sec: store.ops_per_sec,
            fn_nic_bps: faas.nic_bw.as_bytes_per_sec(),
            relay_latency_s: relay.request_latency.as_secs_f64(),
            relay_nic_bps: relay.profile.nic_bw.as_bytes_per_sec(),
            relay_mem_bytes: relay.memory_capacity.as_u64() as f64,
            relay_disk_bps: relay.disk_bw.as_bytes_per_sec(),
            relay_provision_s: relay.profile.provisioning.as_secs_f64(),
            direct_handshake_s: direct.handshake.as_secs_f64(),
            parse_bps: eff(work.parse_mibps),
            sort_bps: eff(work.sort_mibps),
            partition_bps: eff(work.partition_mibps),
            merge_bps: eff(work.merge_mibps),
            encode_bps: eff(work.methcomp_encode_mibps),
            // METHCOMP archives measured on the synthetic dataset come
            // out near a third of the wire size; calibration replaces
            // this with the traced PUT/GET ratio.
            encode_output_ratio: 0.35,
        }
    }

    /// A function's aggregate store transfer rate with `w` active
    /// functions: its own connection and NIC links cap it (shared by its
    /// windowed flows, so independent of K), and the store backbone is
    /// shared W-ways.
    fn store_bw(&self, w: f64) -> f64 {
        self.store_conn_bps
            .min(self.fn_nic_bps)
            .min(self.store_agg_bps / w.max(1.0))
    }

    /// Relay transfer seconds for one exchange direction: every function
    /// moves `per_fn` bytes through its NIC while `total` bytes cross
    /// the `shards` relay NICs; spilled bytes additionally pay the
    /// relay's local disk.
    fn relay_transfer_s(&self, per_fn: f64, total: f64, shards: f64) -> f64 {
        let net = (per_fn / self.fn_nic_bps).max(total / (shards * self.relay_nic_bps));
        let spilled = (total - shards * self.relay_mem_bytes).max(0.0);
        net + spilled / (shards * self.relay_disk_bps)
    }

    /// The request-rate floor: `reqs` store operations cannot complete
    /// faster than the ops/s throttle admits them.
    fn ops_floor_s(&self, reqs: f64) -> f64 {
        reqs / self.store_ops_per_sec
    }

    /// Extra direct-gather seconds lost to the rendezvous convoy. Every
    /// reducer walks the senders in the same order, so the first gather
    /// windows put all `w` receiver flows on the same `min(k, w)` sender
    /// NICs: a convoyed window moves `k` partitions at `nic/w` per flow
    /// instead of streaming at full NIC rate, costing `(w - k)` extra
    /// partition-transfer times. Skew in the range-partitioned sizes
    /// decorrelates the flows after about [`DIRECT_CONVOY_WINDOWS`]
    /// windows, after which `d / nic` (already charged by the caller) is
    /// the right rate. Charging only the handshake here — the pre-fix
    /// behaviour — under-estimated K ≤ 2 direct runs by ~20–25%.
    fn direct_convoy_s(&self, d: f64, w: f64, k: f64) -> f64 {
        let part = d / w;
        DIRECT_CONVOY_WINDOWS * (w - k.min(w)).max(0.0) * part / self.fn_nic_bps
    }

    /// Download/compute overlap for a K-windowed phase: none when K = 1
    /// (one helper downloads and computes in turn); pipelined otherwise,
    /// with one ~`1/(2K)` chunk of the shorter side left un-hidden (the
    /// pipeline fill).
    fn overlap(&self, io_s: f64, compute_s: f64, k: f64) -> f64 {
        if k <= 1.0 {
            io_s + compute_s
        } else {
            io_s.max(compute_s) + io_s.min(compute_s) / (2.0 * k)
        }
    }

    /// Predicts per-phase makespan and bill for `cand` on `wl`.
    ///
    /// # Panics
    /// Panics if `cand.exchange` is [`ExchangeKind::Auto`] — the planner
    /// only evaluates concrete backends.
    pub fn estimate(&self, wl: &Workload, cand: &Candidate) -> Estimate {
        assert!(
            cand.exchange != ExchangeKind::Auto,
            "the model estimates concrete backends only"
        );
        let w = cand.workers.max(1) as f64;
        let k = cand.io_concurrency.max(1) as f64;
        let chunks = wl.input_chunks.max(1) as f64;
        let d = wl.data_bytes / w; // per-function bytes
        let lat = self.store_latency_s;
        let bw = self.store_bw(w);
        let (relay_shards, relay_prewarm) = match cand.exchange.relay_shards() {
            Some((shards, prewarm)) => (shards.max(1) as f64, prewarm),
            None => (0.0, false),
        };

        // ---- prepare: driver LIST, plus blocking relay provisioning. ----
        let mut prepare_s = lat;
        if relay_shards > 0.0 && !relay_prewarm {
            prepare_s += self.relay_provision_s;
        }

        // ---- sample: ranged reads + reservoir parse. ----
        // Only min(W, chunks) functions have assigned inputs.
        let active = w.min(chunks);
        let reads_per_fn = (chunks / w).ceil();
        let sample_io = windows(reads_per_fn, k) * lat
            + reads_per_fn * wl.sample_read_bytes / self.store_bw(active);
        let sample_parse = reads_per_fn * wl.sample_read_bytes / self.parse_bps;
        let sample_s = self.orchestration_s
            + self.cold_start_s
            + self
                .overlap(sample_io, sample_parse, k)
                .max(self.ops_floor_s(chunks));

        // ---- map: download ∥ sort, then partition, then exchange write. ----
        // Every mapper splits its spans into ~2K record-aligned chunks
        // and keeps K in flight.
        let dl_requests = 2.0 * k;
        let map_dl = windows(dl_requests, k) * lat + d / bw;
        let map_sort = d / self.sort_bps;
        let map_io_compute = self.overlap(map_dl, map_sort, k);
        let map_partition = d / self.partition_bps;
        let (map_write, write_reqs) = match cand.exchange {
            ExchangeKind::Scatter => (windows(w, k) * lat + d / bw, w * w),
            ExchangeKind::Coalesced => (lat + d / bw, w),
            ExchangeKind::Direct => (windows(w, k) * self.direct_handshake_s, 0.0),
            ExchangeKind::VmRelay | ExchangeKind::ShardedRelay { .. } => (
                windows(w, k) * self.relay_latency_s
                    + self.relay_transfer_s(d, wl.data_bytes, relay_shards),
                0.0,
            ),
            ExchangeKind::Auto => unreachable!(),
        };
        let mut map_s = self.orchestration_s
            + self.cold_start_s
            + (map_io_compute + map_partition + map_write)
                .max(self.ops_floor_s(w * dl_requests + write_reqs));
        // A pre-warmed relay boots in the background from `prepare`; the
        // first map-phase request blocks for whatever boot time the
        // sampling and map compute did not hide.
        if relay_shards > 0.0 && relay_prewarm {
            let hidden = sample_s
                + self.orchestration_s
                + self.cold_start_s
                + map_io_compute
                + map_partition;
            map_s += (self.relay_provision_s - hidden).max(0.0);
        }

        // ---- reduce: windowed gather, k-way merge, run PUT. ----
        let (gather, gather_reqs) = match cand.exchange {
            ExchangeKind::Scatter | ExchangeKind::Coalesced => {
                (windows(w, k) * lat + d / bw, w * w)
            }
            ExchangeKind::Direct => (
                windows(w, k) * self.direct_handshake_s
                    + d / self.fn_nic_bps
                    + self.direct_convoy_s(d, w, k),
                0.0,
            ),
            ExchangeKind::VmRelay | ExchangeKind::ShardedRelay { .. } => (
                windows(w, k) * self.relay_latency_s
                    + self.relay_transfer_s(d, wl.data_bytes, relay_shards),
                0.0,
            ),
            ExchangeKind::Auto => unreachable!(),
        };
        let merge = d / self.merge_bps;
        let run_put = lat + d / bw;
        let reduce_s = self.orchestration_s
            + self.cold_start_s
            + (gather + merge + run_put).max(self.ops_floor_s(gather_reqs + w));

        // ---- encode tail: each of E functions encodes ceil(W/E) runs. ----
        let e = wl.encode_workers;
        let encode_s = if e == 0 {
            0.0
        } else {
            let gang = (e.min(cand.workers.max(1))) as f64;
            let per = (w / gang).ceil();
            let ebw = self.store_bw(gang);
            self.orchestration_s
                + self.cold_start_s
                + per
                    * (2.0 * lat
                        + d / ebw
                        + d / self.encode_bps
                        + d * self.encode_output_ratio / ebw)
        };

        let makespan_s = prepare_s + sample_s + map_s + reduce_s + encode_s;
        let cost_dollars = self.cost(wl, cand, sample_s, map_s, reduce_s, encode_s, prepare_s);
        Estimate {
            prepare_s,
            sample_s,
            map_s,
            reduce_s,
            encode_s,
            makespan_s,
            cost_dollars,
        }
    }

    /// Itemized bill for one candidate, using [`PlanPrices::default`]
    /// rates (functions GB-seconds + store requests + relay VM hours).
    #[allow(clippy::too_many_arguments)]
    fn cost(
        &self,
        wl: &Workload,
        cand: &Candidate,
        sample_s: f64,
        map_s: f64,
        reduce_s: f64,
        encode_s: f64,
        prepare_s: f64,
    ) -> f64 {
        let p = PlanPrices::default();
        let w = cand.workers.max(1) as f64;
        let k = cand.io_concurrency.max(1) as f64;
        let chunks = wl.input_chunks.max(1) as f64;
        let overhead = self.orchestration_s + self.cold_start_s;
        // Busy function-seconds per phase (the per-function body time,
        // without driver orchestration).
        let active = w.min(chunks);
        let gang = (wl.encode_workers.min(cand.workers.max(1))) as f64;
        let fn_seconds = active * (sample_s - overhead).max(0.0)
            + w * (map_s - overhead).max(0.0)
            + w * (reduce_s - overhead).max(0.0)
            + if wl.encode_workers == 0 {
                0.0
            } else {
                gang * (encode_s - overhead).max(0.0)
            };
        let fn_cost = fn_seconds * p.fn_memory_gb * p.fn_gb_second;

        // Store request classes: A = mutations (PUT/LIST), B = reads.
        let dl_requests = 2.0 * k;
        let mut class_a = 1.0 + w; // driver LISTs + reduce run PUTs
        let mut class_b = chunks + w * dl_requests; // sample + map reads
        match cand.exchange {
            ExchangeKind::Scatter => {
                class_a += w * w;
                class_b += w * w;
            }
            ExchangeKind::Coalesced => {
                class_a += w;
                class_b += w * w;
            }
            _ => {}
        }
        if wl.encode_workers > 0 {
            class_a += w; // archive PUTs
            class_b += w; // run GETs
        }
        let req_cost = class_a / 1_000.0 * p.class_a_per_k + class_b / 1_000.0 * p.class_b_per_k;

        // Relay VMs bill from provisioning start to stage cleanup.
        let vm_cost = match cand.exchange.relay_shards() {
            Some((shards, _)) => {
                let billed = self.relay_provision_s + prepare_s + sample_s + map_s + reduce_s;
                shards.max(1) as f64 * billed / 3_600.0 * p.vm_per_hour
            }
            None => 0.0,
        };
        fn_cost + req_cost + vm_cost
    }

    /// A cheap lower bound on any makespan achievable with `w` workers,
    /// over every backend and window: fixed phase overheads plus the
    /// unavoidable transfers (map download, one exchange direction,
    /// reduce write) at NIC speed and the serial compute. Used by the
    /// planner to prune whole (K, backend, shards) sub-spaces.
    pub fn lower_bound(&self, wl: &Workload, w: usize) -> f64 {
        let wf = w.max(1) as f64;
        let d = wl.data_bytes / wf;
        let phases = if wl.encode_workers > 0 { 4.0 } else { 3.0 };
        let best_bw = self.fn_nic_bps.min(self.store_conn_bps);
        let compute = d / self.sort_bps + d / self.partition_bps + d / self.merge_bps;
        phases * (self.orchestration_s + self.cold_start_s.min(self.warm_start_s))
            + 2.0 * d / best_bw
            + compute
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ModelParams {
        ModelParams::from_configs(
            &StoreConfig::default(),
            &FaasConfig::default(),
            &RelayConfig::default(),
            &DirectConfig::default(),
            &WorkModel::default(),
        )
    }

    fn workload() -> Workload {
        Workload {
            data_bytes: 3.5e9,
            input_chunks: 8,
            sample_read_bytes: 66.0e6,
            encode_workers: 8,
        }
    }

    fn cand(workers: usize, k: usize, exchange: ExchangeKind) -> Candidate {
        Candidate {
            workers,
            io_concurrency: k,
            exchange,
        }
    }

    #[test]
    fn estimates_are_finite_and_positive() {
        let p = params();
        let wl = workload();
        for exchange in [
            ExchangeKind::Scatter,
            ExchangeKind::Coalesced,
            ExchangeKind::VmRelay,
            ExchangeKind::Direct,
            ExchangeKind::ShardedRelay {
                shards: 4,
                prewarm: true,
            },
        ] {
            for w in [1, 8, 64, 128] {
                for k in [1, 4, 16] {
                    let e = p.estimate(&wl, &cand(w, k, exchange));
                    assert!(e.makespan_s.is_finite() && e.makespan_s > 0.0);
                    assert!(e.cost_dollars.is_finite() && e.cost_dollars > 0.0);
                    assert!(
                        (e.prepare_s + e.sample_s + e.map_s + e.reduce_s + e.encode_s
                            - e.makespan_s)
                            .abs()
                            < 1e-9,
                        "phases tile the makespan"
                    );
                }
            }
        }
    }

    #[test]
    fn table1_shape_is_reproduced() {
        // The paper's tuned pure-serverless run (W=8, K=4, scatter) lands
        // near 75 s; the model must be in that neighborhood.
        let e = params().estimate(&workload(), &cand(8, 4, ExchangeKind::Scatter));
        assert!(
            (60.0..=90.0).contains(&e.makespan_s),
            "Table-1 ballpark, got {:.1}s",
            e.makespan_s
        );
    }

    #[test]
    fn coalesced_never_loses_to_scatter() {
        let p = params();
        let wl = workload();
        for w in [4, 8, 16, 32, 64] {
            let s = p.estimate(&wl, &cand(w, 4, ExchangeKind::Scatter));
            let c = p.estimate(&wl, &cand(w, 4, ExchangeKind::Coalesced));
            assert!(c.makespan_s <= s.makespan_s + 1e-9, "W={}", w);
            assert!(c.cost_dollars <= s.cost_dollars + 1e-12, "W={}", w);
        }
    }

    #[test]
    fn windowed_io_overlaps_transfer_and_compute() {
        let p = params();
        let wl = workload();
        let seq = p.estimate(&wl, &cand(8, 1, ExchangeKind::Scatter));
        let win = p.estimate(&wl, &cand(8, 4, ExchangeKind::Scatter));
        assert!(win.map_s < seq.map_s, "K=4 must overlap download and sort");
        assert!(win.makespan_s < seq.makespan_s);
    }

    #[test]
    fn cold_relay_pays_provisioning_and_prewarm_hides_some() {
        let p = params();
        let wl = workload();
        let cold = p.estimate(&wl, &cand(8, 4, ExchangeKind::VmRelay));
        let store = p.estimate(&wl, &cand(8, 4, ExchangeKind::Coalesced));
        assert!(
            cold.makespan_s >= store.makespan_s + 30.0,
            "44 s provisioning dominates"
        );
        let warm = p.estimate(
            &wl,
            &cand(
                8,
                4,
                ExchangeKind::ShardedRelay {
                    shards: 1,
                    prewarm: true,
                },
            ),
        );
        assert!(warm.makespan_s < cold.makespan_s, "prewarm hides boot time");
    }

    #[test]
    fn more_shards_help_wide_fleets() {
        let p = params();
        let wl = workload();
        let one = p.estimate(
            &wl,
            &cand(
                64,
                4,
                ExchangeKind::ShardedRelay {
                    shards: 1,
                    prewarm: true,
                },
            ),
        );
        let eight = p.estimate(
            &wl,
            &cand(
                64,
                4,
                ExchangeKind::ShardedRelay {
                    shards: 8,
                    prewarm: true,
                },
            ),
        );
        assert!(eight.makespan_s < one.makespan_s, "relay NIC stops binding");
    }

    #[test]
    fn lower_bound_is_a_lower_bound() {
        let p = params();
        let wl = workload();
        for w in [2, 8, 32, 128] {
            let lb = p.lower_bound(&wl, w);
            for exchange in [
                ExchangeKind::Scatter,
                ExchangeKind::Coalesced,
                ExchangeKind::Direct,
            ] {
                for k in [1, 4, 16] {
                    let e = p.estimate(&wl, &cand(w, k, exchange));
                    assert!(
                        lb <= e.makespan_s + 1e-9,
                        "lb {:.2} vs {:.2} (W={} K={} {:?})",
                        lb,
                        e.makespan_s,
                        w,
                        k,
                        exchange
                    );
                }
            }
        }
    }

    #[test]
    fn direct_gather_charges_the_rendezvous_convoy() {
        // ROADMAP item 3: at K ≤ 2 all reducers convoy on the same
        // senders for the first windows; the model must charge that
        // serialization instead of assuming fully-overlapped streaming.
        let p = params();
        let wl = workload();
        let w = 8.0;
        let d = wl.data_bytes / w;
        let k1 = p.estimate(&wl, &cand(8, 1, ExchangeKind::Direct));
        let k2 = p.estimate(&wl, &cand(8, 2, ExchangeKind::Direct));
        let k8 = p.estimate(&wl, &cand(8, 8, ExchangeKind::Direct));
        // Convoy cost decays with K and vanishes once K >= W.
        assert!(k1.reduce_s > k2.reduce_s && k2.reduce_s > k8.reduce_s);
        assert!((p.direct_convoy_s(d, w, 8.0)).abs() < 1e-12);
        // The K=1 vs K=W reduce gap is at least the convoy term alone
        // (handshake windowing adds a little more on top).
        let convoy = p.direct_convoy_s(d, w, 1.0);
        assert!(convoy > 0.0);
        assert!(
            k1.reduce_s - k8.reduce_s >= convoy - 1e-9,
            "K=1 reduce {:.2}s vs K=8 {:.2}s, convoy {:.2}s",
            k1.reduce_s,
            k8.reduce_s,
            convoy
        );
    }

    #[test]
    fn params_round_trip_through_json() {
        let p = params();
        let text = faaspipe_json::to_string_pretty(&p);
        let back: ModelParams = faaspipe_json::from_str(&text).expect("parse");
        assert_eq!(back, p);
    }

    #[test]
    #[should_panic(expected = "concrete backends")]
    fn auto_is_rejected() {
        let _ = params().estimate(&workload(), &cand(8, 4, ExchangeKind::Auto));
    }
}

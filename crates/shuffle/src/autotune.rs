//! Worker-count autotuning — Primula's headline feature.
//!
//! "For I/O-bound tasks, using the optimal number of functions in terms of
//! remote storage resource utilization is crucial for good performance"
//! (paper §2.2). The tuner combines an analytic makespan model of the
//! sample→map→reduce data path with storage parameters measured *on the
//! fly* ([`Autotuner::probe`]), and picks the worker count minimizing
//! modelled completion time.
//!
//! The model captures the three regimes the worker sweep (experiment E3)
//! exhibits:
//!
//! * **too few workers** — per-connection bandwidth bound: each function
//!   must move `D/W` bytes at `min(conn_bw, agg_bw / W)`;
//! * **sweet spot** — enough connections to aggregate storage bandwidth,
//!   few enough that request overheads stay small;
//! * **too many workers** — the `W²` intermediate objects hit request
//!   latency and the store's operations/s throttle.

use std::sync::Arc;

use bytes::Bytes;
use faaspipe_des::Ctx;
use faaspipe_store::{ObjectStore, StoreError};

/// Analytic makespan/cost model of the serverless sort.
#[derive(Debug, Clone)]
pub struct TuningModel {
    /// Shuffle data size in (modelled) bytes.
    pub data_bytes: f64,
    /// Number of input chunk objects.
    pub input_chunks: usize,
    /// Per-request latency, seconds.
    pub request_latency_s: f64,
    /// Per-connection bandwidth, bytes/sec.
    pub conn_bw: f64,
    /// Store aggregate bandwidth, bytes/sec.
    pub agg_bw: f64,
    /// Store operations per second.
    pub ops_per_sec: f64,
    /// Function startup paid once per stage, seconds.
    pub startup_s: f64,
    /// vCPU share per function.
    pub cpu_share: f64,
    /// Local-sort throughput per vCPU, bytes/sec.
    pub sort_bps: f64,
    /// Merge throughput per vCPU, bytes/sec.
    pub merge_bps: f64,
    /// Largest worker count considered.
    pub max_workers: usize,
}

/// Modelled makespan decomposition for one worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Workers this breakdown is for.
    pub workers: usize,
    /// Startup (cold start) seconds.
    pub startup_s: f64,
    /// Data movement seconds (both phases).
    pub transfer_s: f64,
    /// Request overhead seconds (latency + ops/s throttling).
    pub request_s: f64,
    /// Compute seconds (sort + merge).
    pub compute_s: f64,
}

impl CostBreakdown {
    /// Total modelled makespan in seconds.
    pub fn total_s(&self) -> f64 {
        self.startup_s + self.transfer_s + self.request_s + self.compute_s
    }
}

impl TuningModel {
    /// Models the makespan for `workers` functions in the shuffle stage.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn breakdown(&self, workers: usize) -> CostBreakdown {
        assert!(workers > 0, "workers must be positive");
        let w = workers as f64;
        let per_fn_bw = self.conn_bw.min(self.agg_bw / w);
        // Map: read D/W, write D/W. Reduce: read D/W, write D/W.
        let transfer_s = 4.0 * (self.data_bytes / w) / per_fn_bw;
        // Requests: map does (chunks/W reads + W writes), reduce does
        // (W reads + 1 write); serial latency per worker, floored by the
        // store-wide ops/s throttle over ~2W² + chunks total requests.
        let per_worker_reqs = (self.input_chunks as f64 / w).ceil() + 2.0 * w + 1.0;
        let serial = per_worker_reqs * self.request_latency_s;
        let total_reqs = 2.0 * w * w + self.input_chunks as f64 + w;
        let throttled = total_reqs / self.ops_per_sec;
        let request_s = serial.max(throttled);
        // Compute: local sort of D/W, then merge of D/W, at cpu_share.
        let compute_s = (self.data_bytes / w) / (self.sort_bps * self.cpu_share)
            + (self.data_bytes / w) / (self.merge_bps * self.cpu_share);
        CostBreakdown {
            workers,
            startup_s: 2.0 * self.startup_s,
            transfer_s,
            request_s,
            compute_s,
        }
    }

    /// The worker count minimizing modelled makespan (ties go to fewer
    /// workers).
    pub fn best_workers(&self) -> usize {
        let mut best = 1;
        let mut best_t = f64::INFINITY;
        for w in 1..=self.max_workers.max(1) {
            let t = self.breakdown(w).total_s();
            if t < best_t {
                best_t = t;
                best = w;
            }
        }
        best
    }

    /// Modelled dollar cost for `workers` (function GB-seconds plus
    /// storage requests), used by the cost-for-latency trade-off report.
    pub fn cost_dollars(
        &self,
        workers: usize,
        memory_gb: f64,
        gb_second_price: f64,
        class_a_price_per_k: f64,
        class_b_price_per_k: f64,
    ) -> f64 {
        let b = self.breakdown(workers);
        let w = workers as f64;
        // Each function is busy roughly total/parallelism of the
        // non-startup time, twice (map + reduce stage).
        let busy_s = b.transfer_s + b.request_s + b.compute_s;
        let gb_s = 2.0 * w * memory_gb * busy_s / 2.0;
        let class_a = w * w + w; // scatter writes + run writes
        let class_b = w * w + self.input_chunks as f64 + w; // gathers + reads + samples
        gb_s * gb_second_price
            + class_a / 1000.0 * class_a_price_per_k
            + class_b / 1000.0 * class_b_price_per_k
    }
}

/// Pricing inputs for cost-aware tuning.
#[derive(Debug, Clone)]
pub struct TuningPrices {
    /// Function memory in GB.
    pub memory_gb: f64,
    /// Price per GB-second of function execution.
    pub gb_second: f64,
    /// Price per 1000 class-A (write/list) requests.
    pub class_a_per_k: f64,
    /// Price per 1000 class-B (read) requests.
    pub class_b_per_k: f64,
}

impl Default for TuningPrices {
    fn default() -> Self {
        TuningPrices {
            memory_gb: 2.0,
            gb_second: 0.000017,
            class_a_per_k: 0.005,
            class_b_per_k: 0.0004,
        }
    }
}

impl TuningModel {
    /// Modelled cost with a [`TuningPrices`] bundle.
    pub fn cost_with(&self, workers: usize, prices: &TuningPrices) -> f64 {
        self.cost_dollars(
            workers,
            prices.memory_gb,
            prices.gb_second,
            prices.class_a_per_k,
            prices.class_b_per_k,
        )
    }

    /// The latency-optimal worker count whose modelled cost stays within
    /// `budget_dollars`. Falls back to the overall cheapest count when no
    /// worker count fits the budget.
    pub fn best_workers_under_budget(&self, budget_dollars: f64, prices: &TuningPrices) -> usize {
        let mut best: Option<(usize, f64)> = None;
        let mut cheapest = (1usize, f64::INFINITY);
        for w in 1..=self.max_workers.max(1) {
            let cost = self.cost_with(w, prices);
            let latency = self.breakdown(w).total_s();
            if cost < cheapest.1 {
                cheapest = (w, cost);
            }
            if cost <= budget_dollars {
                match best {
                    Some((_, l)) if l <= latency => {}
                    _ => best = Some((w, latency)),
                }
            }
        }
        best.map(|(w, _)| w).unwrap_or(cheapest.0)
    }

    /// The Pareto frontier over `(workers, latency_s, cost_dollars)`:
    /// configurations not dominated in both latency and cost, in
    /// increasing worker order.
    pub fn pareto(&self, prices: &TuningPrices) -> Vec<(usize, f64, f64)> {
        let mut points: Vec<(usize, f64, f64)> = (1..=self.max_workers.max(1))
            .map(|w| (w, self.breakdown(w).total_s(), self.cost_with(w, prices)))
            .collect();
        points.sort_by(|a, b| a.2.total_cmp(&b.2));
        let mut frontier: Vec<(usize, f64, f64)> = Vec::new();
        let mut best_latency = f64::INFINITY;
        for p in points {
            if p.1 < best_latency {
                best_latency = p.1;
                frontier.push(p);
            }
        }
        frontier.sort_by_key(|p| p.0);
        frontier
    }
}

/// Measures storage parameters on the fly and instantiates the model —
/// Primula's "finds the optimal number of functions ... on the fly".
#[derive(Debug)]
pub struct Autotuner {
    /// Measured per-request latency, seconds.
    pub measured_latency_s: f64,
    /// Measured per-connection bandwidth, bytes/sec.
    pub measured_conn_bw: f64,
}

impl Autotuner {
    /// Probes the store with a handful of requests: timed empty PUTs for
    /// latency, a timed multi-megabyte PUT/GET pair for bandwidth.
    ///
    /// # Errors
    /// Propagates store failures.
    pub async fn probe(
        ctx: &mut Ctx,
        store: &Arc<ObjectStore>,
        bucket: &str,
    ) -> Result<Autotuner, StoreError> {
        let client = store.connect(ctx, "autotune/probe").await;
        // Latency: average 3 empty PUTs.
        let t0 = ctx.now();
        for i in 0..3 {
            client
                .put(ctx, bucket, &format!("__probe/lat{}", i), Bytes::new())
                .await?;
        }
        let lat = ctx.now().saturating_duration_since(t0).as_secs_f64() / 3.0;
        // Bandwidth: one 4 MiB (modelled) round trip, netting out latency.
        // Under a scaled data model the physical payload shrinks so the
        // wire-level probe stays 4 MiB.
        let scale = store.config().size_scale;
        let physical = ((4.0 * 1024.0 * 1024.0 / scale).round() as usize).max(1);
        let payload = Bytes::from(vec![0u8; physical]);
        let t0 = ctx.now();
        client.put(ctx, bucket, "__probe/bw", payload).await?;
        let up = ctx.now().saturating_duration_since(t0).as_secs_f64();
        let t0 = ctx.now();
        let got = client.get(ctx, bucket, "__probe/bw").await?;
        let down = ctx.now().saturating_duration_since(t0).as_secs_f64();
        let wire = store.config().scaled_len(got.len()) as f64;
        let bw = (2.0 * wire) / ((up - lat).max(1e-6) + (down - lat).max(1e-6));
        // Clean up probe objects.
        for i in 0..3 {
            client
                .delete(ctx, bucket, &format!("__probe/lat{}", i))
                .await?;
        }
        client.delete(ctx, bucket, "__probe/bw").await?;
        Ok(Autotuner {
            measured_latency_s: lat,
            measured_conn_bw: bw,
        })
    }

    /// Builds the analytic model from the measurements plus known platform
    /// parameters.
    #[allow(clippy::too_many_arguments)]
    pub fn model(
        &self,
        data_bytes: f64,
        input_chunks: usize,
        store: &ObjectStore,
        startup_s: f64,
        cpu_share: f64,
        sort_bps: f64,
        merge_bps: f64,
        max_workers: usize,
    ) -> TuningModel {
        TuningModel {
            data_bytes,
            input_chunks,
            request_latency_s: self.measured_latency_s,
            conn_bw: self.measured_conn_bw,
            agg_bw: store.config().aggregate_bw.as_bytes_per_sec(),
            ops_per_sec: store.config().ops_per_sec,
            startup_s,
            cpu_share,
            sort_bps,
            merge_bps,
            max_workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faaspipe_des::Sim;
    use faaspipe_store::StoreConfig;
    use parking_lot::Mutex;

    /// A model shaped like the paper's setup: 3.5 GB, COS-ish store.
    fn paper_model() -> TuningModel {
        TuningModel {
            data_bytes: 3.5e9,
            input_chunks: 8,
            request_latency_s: 0.028,
            conn_bw: 95.0 * 1024.0 * 1024.0,
            agg_bw: 200e9 / 8.0,
            ops_per_sec: 3_000.0,
            startup_s: 0.52,
            cpu_share: 1.0,
            sort_bps: 95.0 * 1024.0 * 1024.0,
            merge_bps: 180.0 * 1024.0 * 1024.0,
            max_workers: 256,
        }
    }

    #[test]
    fn interior_optimum_exists() {
        let m = paper_model();
        let best = m.best_workers();
        let t1 = m.breakdown(1).total_s();
        let t_best = m.breakdown(best).total_s();
        let t_max = m.breakdown(m.max_workers).total_s();
        assert!(best > 1, "one worker cannot be optimal for 3.5 GB");
        assert!(
            best < m.max_workers,
            "request overhead must bite eventually"
        );
        assert!(t_best < t1, "optimum beats too-few");
        assert!(t_best < t_max, "optimum beats too-many");
    }

    #[test]
    fn too_few_workers_are_bandwidth_bound() {
        let m = paper_model();
        let b = m.breakdown(1);
        assert!(
            b.transfer_s > b.request_s && b.transfer_s > b.compute_s,
            "{:?}",
            b
        );
    }

    #[test]
    fn too_many_workers_are_request_bound() {
        let m = paper_model();
        let b = m.breakdown(256);
        assert!(b.request_s > b.transfer_s, "{:?}", b);
    }

    #[test]
    fn more_data_wants_more_workers() {
        let small = TuningModel {
            data_bytes: 100e6,
            ..paper_model()
        };
        let large = TuningModel {
            data_bytes: 10e9,
            ..paper_model()
        };
        assert!(
            small.best_workers() <= large.best_workers(),
            "small {} vs large {}",
            small.best_workers(),
            large.best_workers()
        );
    }

    #[test]
    fn slower_ops_budget_wants_fewer_workers() {
        let slow = TuningModel {
            ops_per_sec: 300.0,
            ..paper_model()
        };
        let fast = TuningModel {
            ops_per_sec: 30_000.0,
            ..paper_model()
        };
        assert!(slow.best_workers() <= fast.best_workers());
    }

    #[test]
    fn cost_grows_with_workers_at_the_tail() {
        let m = paper_model();
        let c8 = m.cost_dollars(8, 2.0, 0.000017, 0.005, 0.0004);
        let c256 = m.cost_dollars(256, 2.0, 0.000017, 0.005, 0.0004);
        assert!(c256 > c8, "request costs must dominate eventually");
        assert!(c8 > 0.0);
    }

    #[test]
    fn budget_constrained_tuning_trades_latency_for_cost() {
        let m = paper_model();
        let prices = TuningPrices::default();
        let unconstrained = m.best_workers();
        let unconstrained_cost = m.cost_with(unconstrained, &prices);
        // A budget at half the unconstrained cost must pick fewer (or
        // equal) workers and stay within budget.
        let budget = unconstrained_cost / 2.0;
        let constrained = m.best_workers_under_budget(budget, &prices);
        assert!(constrained <= unconstrained);
        assert!(m.cost_with(constrained, &prices) <= budget + 1e-12);
        // An enormous budget reproduces the latency optimum.
        assert_eq!(m.best_workers_under_budget(1e9, &prices), unconstrained);
    }

    #[test]
    fn impossible_budget_falls_back_to_cheapest() {
        let m = paper_model();
        let prices = TuningPrices::default();
        let w = m.best_workers_under_budget(0.0, &prices);
        let cost = m.cost_with(w, &prices);
        for other in 1..=m.max_workers {
            assert!(cost <= m.cost_with(other, &prices) + 1e-12);
        }
    }

    #[test]
    fn pareto_frontier_is_monotone() {
        let m = paper_model();
        let frontier = m.pareto(&TuningPrices::default());
        assert!(!frontier.is_empty());
        // Sorted by workers; along the frontier cost rises and latency
        // falls (no dominated points).
        for pair in frontier.windows(2) {
            assert!(pair[0].0 < pair[1].0);
            assert!(pair[0].2 <= pair[1].2 + 1e-12, "cost must not fall");
            assert!(pair[0].1 >= pair[1].1 - 1e-12, "latency must not rise");
        }
        // The latency optimum is on the frontier.
        let best = m.best_workers();
        assert!(frontier.iter().any(|p| p.0 == best));
    }

    #[test]
    fn probe_measures_configured_parameters() {
        let mut sim = Sim::new();
        let cfg = StoreConfig::default();
        let expected_lat = cfg.first_byte_latency.as_secs_f64();
        let expected_bw = cfg.per_connection_bw.as_bytes_per_sec();
        let store = ObjectStore::install(&mut sim, cfg);
        store.create_bucket("data").expect("bucket");
        let out: Arc<Mutex<Option<Autotuner>>> = Arc::new(Mutex::new(None));
        let out2 = Arc::clone(&out);
        let store2 = Arc::clone(&store);
        sim.spawn("prober", move |mut ctx| async move {
            let ctx = &mut ctx;
            let tuner = Autotuner::probe(ctx, &store2, "data").await.expect("probe");
            *out2.lock() = Some(tuner);
        });
        sim.run().expect("sim ok");
        let tuner = out.lock().take().expect("probe ran");
        assert!(
            (tuner.measured_latency_s - expected_lat).abs() / expected_lat < 0.05,
            "latency {} vs {}",
            tuner.measured_latency_s,
            expected_lat
        );
        assert!(
            (tuner.measured_conn_bw - expected_bw).abs() / expected_bw < 0.15,
            "bw {} vs {}",
            tuner.measured_conn_bw,
            expected_bw
        );
    }

    #[test]
    #[should_panic(expected = "workers must be positive")]
    fn zero_workers_breakdown_panics() {
        paper_model().breakdown(0);
    }
}

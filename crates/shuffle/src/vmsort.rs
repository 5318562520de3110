//! The VM-driven sort baseline (the hybrid pipeline's shuffle stage).
//!
//! Instead of scattering data between functions through the store, a
//! single large VM downloads every input chunk over its one NIC, sorts
//! in memory with all cores, and uploads the sorted runs. No all-to-all
//! traffic — but the pipeline pays the provisioning delay and is limited
//! to one machine's bandwidth and cores.

use std::sync::Arc;

use bytes::Bytes;

use faaspipe_des::{Ctx, SimDuration, SimTime};
use faaspipe_store::ObjectStore;
use faaspipe_vm::{VmFleet, VmProfile};

use crate::error::ShuffleError;
use crate::record::SortRecord;
use crate::sort::{phase_begin, phase_end};
use crate::work::WorkModel;
use faaspipe_exchange::with_retry;

/// Attempts per store request.
const RETRIES: u32 = 3;

/// Configuration of one VM-driven sort.
#[derive(Debug, Clone)]
pub struct VmSortConfig {
    /// Bucket holding inputs and outputs.
    pub bucket: String,
    /// Prefix of the input chunk objects.
    pub input_prefix: String,
    /// Prefix for the sorted run objects.
    pub output_prefix: String,
    /// Number of output runs (the downstream encode parallelism).
    pub runs: usize,
    /// Instance type to provision.
    pub profile: VmProfile,
    /// Metrics/billing tag.
    pub tag: String,
    /// CPU-work calibration.
    pub work: WorkModel,
}

impl Default for VmSortConfig {
    fn default() -> Self {
        VmSortConfig {
            bucket: "data".to_string(),
            input_prefix: "in/".to_string(),
            output_prefix: "out/".to_string(),
            runs: 8,
            profile: VmProfile::bx2_8x32(),
            tag: "vmsort".to_string(),
            work: WorkModel::default(),
        }
    }
}

/// Outcome of a VM-driven sort.
#[derive(Debug, Clone)]
pub struct VmSortStats {
    /// Total input bytes (real, unscaled).
    pub input_bytes: u64,
    /// Total output bytes (real, unscaled).
    pub output_bytes: u64,
    /// Keys of the sorted run objects, in global order.
    pub runs: Vec<String>,
    /// Time spent provisioning the VM.
    pub provision_duration: SimDuration,
    /// Time spent downloading inputs.
    pub download_duration: SimDuration,
    /// Time spent sorting in memory.
    pub sort_duration: SimDuration,
    /// Time spent uploading runs.
    pub upload_duration: SimDuration,
    /// When the operator started (provisioning request).
    pub started: SimTime,
    /// When the operator finished.
    pub finished: SimTime,
}

impl VmSortStats {
    /// Total wall-clock of the operator.
    pub fn total_duration(&self) -> SimDuration {
        self.finished.saturating_duration_since(self.started)
    }
}

/// Runs the VM-driven sort from the calling (driver) process.
///
/// # Errors
/// [`ShuffleError`] on configuration problems, store failures that
/// survive retries, or corrupt input data.
pub async fn vm_sort<R: SortRecord>(
    ctx: &mut Ctx,
    fleet: &VmFleet,
    store: &Arc<ObjectStore>,
    cfg: &VmSortConfig,
) -> Result<VmSortStats, ShuffleError> {
    if cfg.runs == 0 {
        return Err(ShuffleError::BadConfig {
            reason: "runs must be positive".to_string(),
        });
    }
    let started = ctx.now();
    let trace = store.trace_sink();
    let vm = fleet.provision(ctx, cfg.profile.clone()).await;
    let provisioned = ctx.now();
    // All VM traffic flows through the instance's single NIC.
    let client = store.connect_via(ctx, cfg.tag.clone(), &[vm.nic]).await;

    let p_download = phase_begin(ctx, &trace, "download", SimDuration::ZERO).await;
    let inputs = client.list(ctx, &cfg.bucket, &cfg.input_prefix).await?;
    if inputs.is_empty() {
        return Err(ShuffleError::BadConfig {
            reason: format!("no inputs under '{}'", cfg.input_prefix),
        });
    }
    // Chunks stay in wire form; the kernel sorts over them in place.
    let mut chunks: Vec<Bytes> = Vec::with_capacity(inputs.len());
    let mut input_bytes = 0u64;
    for obj in &inputs {
        let data = with_retry(ctx, RETRIES, async |c: &mut Ctx| {
            client.get(c, &cfg.bucket, &obj.key).await
        })
        .await?;
        input_bytes += data.len() as u64;
        chunks.push(data);
    }
    phase_end(ctx, &trace, p_download);
    let downloaded = ctx.now();

    // In-memory sort using every core: charge the parallel compute, then
    // sort inline. The zero-copy kernel validates and sorts the wire
    // bytes directly; its (chunk, offset) tie-break reproduces the stable
    // decoded-record sort byte for byte.
    let p_sort = phase_begin(ctx, &trace, "sort", SimDuration::ZERO).await;
    vm.compute_parallel(
        ctx,
        cfg.work.sort_time(input_bytes as usize),
        cfg.profile.vcpus,
    )
    .await;
    let sorted_bytes = Bytes::from(crate::kernel::sort_concat::<R>(&chunks)?);
    // Free the input chunks before the uploads yield.
    drop(chunks);
    phase_end(ctx, &trace, p_sort);
    let sorted = ctx.now();

    // Upload equal-size record ranges as the sorted runs — O(1) slices
    // of the one sorted buffer, so the retried PUTs clone refcounts,
    // not record bytes.
    let p_upload = phase_begin(ctx, &trace, "upload", SimDuration::ZERO).await;
    let mut run_keys = Vec::with_capacity(cfg.runs);
    let total_records = sorted_bytes.len() / R::WIRE_SIZE;
    let per = total_records.div_ceil(cfg.runs).max(1);
    let mut output_bytes = 0u64;
    for j in 0..cfg.runs {
        let lo = (j * per).min(total_records);
        let hi = ((j + 1) * per).min(total_records);
        let data = sorted_bytes.slice(lo * R::WIRE_SIZE..hi * R::WIRE_SIZE);
        output_bytes += data.len() as u64;
        let key = format!("{}{:05}", cfg.output_prefix, j);
        with_retry(ctx, RETRIES, async |c: &mut Ctx| {
            client.put(c, &cfg.bucket, &key, data.clone()).await
        })
        .await?;
        run_keys.push(key);
    }
    phase_end(ctx, &trace, p_upload);
    let finished = ctx.now();
    fleet.release(ctx, vm);
    Ok(VmSortStats {
        input_bytes,
        output_bytes,
        runs: run_keys,
        provision_duration: provisioned.saturating_duration_since(started),
        download_duration: downloaded.saturating_duration_since(provisioned),
        sort_duration: sorted.saturating_duration_since(downloaded),
        upload_duration: finished.saturating_duration_since(sorted),
        started,
        finished,
    })
}

#[cfg(test)]
#[allow(clippy::type_complexity)]
mod tests {
    use super::*;
    use faaspipe_des::Sim;
    use faaspipe_store::StoreConfig;
    use parking_lot::Mutex;

    fn run_vm_sort(values: Vec<u64>, chunks: usize, runs: usize) -> (Vec<u64>, VmSortStats) {
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default());
        let fleet = VmFleet::new();
        store.create_bucket("data").expect("bucket");
        let per = values.len().div_ceil(chunks);
        let store_up = Arc::clone(&store);
        let values2 = values.clone();
        sim.spawn("uploader", move |mut ctx| async move {
            let ctx = &mut ctx;
            let client = store_up.connect(ctx, "upload").await;
            for (i, chunk) in values2.chunks(per).enumerate() {
                let data = SortRecord::write_all(chunk);
                client
                    .put(ctx, "data", &format!("in/{:04}", i), Bytes::from(data))
                    .await
                    .expect("upload");
            }
        });
        let result: Arc<Mutex<Option<(Vec<u64>, VmSortStats)>>> = Arc::new(Mutex::new(None));
        let result2 = Arc::clone(&result);
        let store2 = Arc::clone(&store);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            ctx.sleep(SimDuration::from_secs(120)).await;
            let cfg = VmSortConfig {
                runs,
                ..VmSortConfig::default()
            };
            let stats = vm_sort::<u64>(ctx, &fleet, &store2, &cfg)
                .await
                .expect("vm sort");
            let client = store2.connect(ctx, "verify").await;
            let mut all = Vec::new();
            for run in &stats.runs {
                let data = client.get(ctx, "data", run).await.expect("run exists");
                let mut records: Vec<u64> = SortRecord::read_all(&data).expect("decode");
                all.append(&mut records);
            }
            *result2.lock() = Some((all, stats));
        });
        sim.run().expect("sim ok");
        let out = result.lock().take().expect("driver ran");
        out
    }

    #[test]
    fn vm_sort_produces_global_order() {
        let mut values: Vec<u64> = (0..5_000u64).map(|i| (i * 48_271) % 100_000).collect();
        let (sorted, stats) = run_vm_sort(values.clone(), 4, 8);
        values.sort_unstable();
        assert_eq!(sorted, values);
        assert_eq!(stats.runs.len(), 8);
        assert_eq!(stats.input_bytes, stats.output_bytes);
    }

    #[test]
    fn provisioning_dominates_small_inputs() {
        let values: Vec<u64> = (0..1_000u64).rev().collect();
        let (_, stats) = run_vm_sort(values, 2, 2);
        assert!(
            stats.provision_duration > stats.download_duration + stats.sort_duration,
            "tiny sort should be dominated by the boot delay: {:?}",
            stats
        );
        assert_eq!(
            stats.total_duration(),
            stats.provision_duration
                + stats.download_duration
                + stats.sort_duration
                + stats.upload_duration
        );
    }

    #[test]
    fn zero_runs_rejected() {
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default());
        let fleet = VmFleet::new();
        store.create_bucket("data").expect("bucket");
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            let cfg = VmSortConfig {
                runs: 0,
                ..VmSortConfig::default()
            };
            let err = vm_sort::<u64>(ctx, &fleet, &store, &cfg)
                .await
                .expect_err("bad cfg");
            assert!(matches!(err, ShuffleError::BadConfig { .. }));
        });
        sim.run().expect("sim ok");
    }

    #[test]
    fn vm_is_billed_for_the_sort_span() {
        let mut sim = Sim::new();
        let store = ObjectStore::install(&mut sim, StoreConfig::default());
        let fleet = VmFleet::new();
        store.create_bucket("data").expect("bucket");
        let values: Vec<u64> = (0..2_000u64).rev().collect();
        let store_up = Arc::clone(&store);
        let v2 = values.clone();
        sim.spawn("uploader", move |mut ctx| async move {
            let ctx = &mut ctx;
            let client = store_up.connect(ctx, "upload").await;
            let data = SortRecord::write_all(&v2);
            client
                .put(ctx, "data", "in/0000", Bytes::from(data))
                .await
                .expect("upload");
        });
        let fleet2 = fleet.clone();
        let store2 = Arc::clone(&store);
        sim.spawn("driver", move |mut ctx| async move {
            let ctx = &mut ctx;
            ctx.sleep(SimDuration::from_secs(60)).await;
            vm_sort::<u64>(ctx, &fleet2, &store2, &VmSortConfig::default())
                .await
                .expect("vm sort");
        });
        sim.run().expect("sim ok");
        let recs = fleet.records();
        assert_eq!(recs.len(), 1);
        assert!(recs[0].released.is_some(), "vm released after sort");
    }
}

//! The three workloads and their configurations, all derived from one
//! seed. See README.md for why each was chosen.

use faaspipe::cluster::{AdmissionPolicy, Arrival, ArrivalProcess, ClusterConfig, TenantSpec};
use faaspipe::core::{PipelineConfig, PipelineMode, WorkerChoice};
use faaspipe::des::SimDuration;
use faaspipe::exchange::ExchangeKind;

/// The default seed: `PipelineConfig::paper_table1`'s dataset seed.
pub const DEFAULT_SEED: u64 = 0xE0C0_FF88;

/// A second seed, never used while tuning the benchmark. A claim made on
/// the default seed must also hold on this one.
pub const HELD_OUT_SEED: u64 = 0x5EED_2021;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Control-plane bound: pure serverless, coalesced exchange, W=2048.
    Fanout,
    /// Data-plane bound: the paper's Table 1, both rows.
    Table1,
    /// Five tenants sharing one store, platform and fleet.
    Cluster,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Fanout, Workload::Table1, Workload::Cluster];

    /// The workload's name on the command line and in the output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fanout => "fanout",
            Workload::Table1 => "table1",
            Workload::Cluster => "cluster",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                format!("unknown workload '{name}' (expected fanout, table1, cluster or all)")
            })
    }

    /// The workload's runs for `seed`: one or more standalone pipelines,
    /// or one cluster. `smoke` shrinks every size so a test can run each
    /// check path in about a second.
    pub fn plan(self, seed: u64, smoke: bool) -> Plan {
        match self {
            Workload::Fanout => Plan::Pipelines(vec![fanout(seed, smoke)]),
            Workload::Table1 => Plan::Pipelines(
                [PipelineMode::PureServerless, PipelineMode::VmHybrid]
                    .into_iter()
                    .map(|mode| table1_row(mode, seed, smoke))
                    .collect(),
            ),
            Workload::Cluster => Plan::Cluster(Box::new(cluster(seed, smoke))),
        }
    }
}

/// What one run of a workload executes.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Standalone pipelines through `run_methcomp_pipeline`, run one
    /// after another; together they are one run of the workload.
    Pipelines(Vec<PipelineConfig>),
    /// One `run_cluster` call.
    Cluster(Box<ClusterConfig>),
}

fn fanout(seed: u64, smoke: bool) -> PipelineConfig {
    let mut cfg = PipelineConfig::paper_table1();
    cfg.seed = seed;
    cfg.physical_records = if smoke { 800 } else { 8_000 };
    cfg.workers = WorkerChoice::Fixed(if smoke { 64 } else { 2048 });
    cfg.exchange = ExchangeKind::Coalesced;
    cfg.io_concurrency = 4;
    cfg
}

fn table1_row(mode: PipelineMode, seed: u64, smoke: bool) -> PipelineConfig {
    let mut cfg = PipelineConfig::paper_table1();
    cfg.mode = mode;
    cfg.seed = seed;
    if smoke {
        cfg.physical_records = 4_000;
    }
    cfg
}

/// The cluster's tenants. Each exercises a different exchange path.
pub fn cluster_tenants() -> Vec<TenantSpec> {
    let mut cos = TenantSpec::new("cos");
    cos.exchange = ExchangeKind::Coalesced;
    cos.workers = WorkerChoice::Fixed(32);

    let mut relay = TenantSpec::new("relay");
    relay.exchange = ExchangeKind::ShardedRelay {
        shards: 2,
        prewarm: true,
    };
    relay.workers = WorkerChoice::Fixed(16);
    relay.admission = AdmissionPolicy::unlimited().with_max_concurrent(2);

    let mut direct = TenantSpec::new("direct");
    direct.exchange = ExchangeKind::Direct;
    direct.workers = WorkerChoice::Fixed(16);

    let mut hybrid = TenantSpec::new("hybrid");
    hybrid.mode = PipelineMode::VmHybrid;

    let mut auto = TenantSpec::new("auto");
    auto.exchange = ExchangeKind::Auto;

    vec![cos, relay, direct, hybrid, auto]
}

/// Aggregate submission rate of the cluster's Poisson arrivals.
const CLUSTER_RATE_PER_S: f64 = 0.12;

/// The seed of the cluster's arrival schedule. It is fixed: when the
/// schedule followed `--seed`, how many runs overlapped moved the
/// cluster's host time by up to 25% between seeds. `--seed` still picks
/// every run's dataset.
const CLUSTER_ARRIVAL_SEED: u64 = DEFAULT_SEED;

fn cluster(seed: u64, smoke: bool) -> ClusterConfig {
    let tenants = cluster_tenants();
    let per_tenant = if smoke { 1 } else { 18 };
    let arrivals = first_arrivals(CLUSTER_ARRIVAL_SEED, tenants.len(), per_tenant);
    let mut cfg = ClusterConfig::new(tenants, ArrivalProcess::Trace(arrivals));
    cfg.seed = seed;
    cfg.physical_records = if smoke { 1_000 } else { 8_000 };
    cfg.verify = true;
    cfg
}

/// The first `per_tenant` arrivals of each of `tenants` equal-weight
/// tenants in the seeded Poisson stream: every tenant still arrives as
/// a Poisson process, but the number of runs does not depend on the
/// seed, so neither does the amount of work.
pub fn first_arrivals(seed: u64, tenants: usize, per_tenant: usize) -> Vec<Arrival> {
    let weights = vec![1.0; tenants];
    let mut horizon_s = 4.0 * (per_tenant * tenants) as f64 / CLUSTER_RATE_PER_S;
    loop {
        // A longer horizon extends the same stream, so a retry keeps
        // every arrival already drawn.
        let all = ArrivalProcess::Poisson {
            rate_per_sec: CLUSTER_RATE_PER_S,
            horizon: SimDuration::from_secs_f64(horizon_s),
        }
        .generate(seed, &weights)
        .expect("constant positive rate and weights");
        let mut counts = vec![0usize; tenants];
        let kept: Vec<Arrival> = all
            .into_iter()
            .filter(|a| {
                counts[a.tenant] += 1;
                counts[a.tenant] <= per_tenant
            })
            .collect();
        if counts.iter().all(|&c| c >= per_tenant) {
            return kept;
        }
        horizon_s *= 2.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("sweep").is_err());
    }

    #[test]
    fn each_tenant_gets_the_same_number_of_runs() {
        for seed in 0..20 {
            let arrivals = first_arrivals(seed, 5, 18);
            assert_eq!(arrivals.len(), 90);
            for t in 0..5 {
                assert_eq!(arrivals.iter().filter(|a| a.tenant == t).count(), 18);
            }
            assert!(arrivals.windows(2).all(|w| w[0].at <= w[1].at));
        }
        assert_eq!(first_arrivals(3, 5, 18), first_arrivals(3, 5, 18));
    }

    #[test]
    fn every_input_derives_from_the_seed() {
        for w in Workload::ALL {
            match w.plan(7, true) {
                Plan::Pipelines(cfgs) => assert!(cfgs.iter().all(|c| c.seed == 7)),
                Plan::Cluster(cfg) => assert_eq!(cfg.seed, 7),
            }
        }
        assert_eq!(DEFAULT_SEED, PipelineConfig::paper_table1().seed);
        assert_ne!(first_arrivals(1, 5, 3), first_arrivals(2, 5, 3));
        assert_ne!(DEFAULT_SEED, HELD_OUT_SEED);
    }
}

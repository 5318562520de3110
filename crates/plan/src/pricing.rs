//! Price book and cost assembly (IBM-Cloud-like list prices, 2021).
//!
//! The paper's Table 1 cost "subsumes the following charges: the cost of
//! cloud functions, storage requests, and the VM expenses — i.e.,
//! execution time and storage volume". [`CostReport`] itemizes exactly
//! those, per stage and in total.
//!
//! Every price lives here, in one [`PriceBook`]: a run is billed with
//! it ([`PriceBook::assemble`]) and the model prices a plan with the
//! same book ([`ModelParams::from_configs`](crate::ModelParams::from_configs)).

use std::collections::BTreeMap;

use faaspipe_des::{Money, SimTime};
use faaspipe_faas::InvocationRecord;
use faaspipe_store::{StoreMetrics, TagMetrics};
use faaspipe_vm::VmRecord;

/// List prices for the simulated cloud.
#[derive(Debug, Clone)]
pub struct PriceBook {
    /// Cloud functions: per GB-second of billed execution.
    pub fn_gb_second: Money,
    /// Object storage: per 1000 class-A (write/list) requests.
    pub store_class_a_per_k: Money,
    /// Object storage: per 1000 class-B (read) requests.
    pub store_class_b_per_k: Money,
    /// VM compute: per hour, by profile name (billed per second).
    pub vm_hourly: BTreeMap<String, Money>,
    /// VM boot-volume storage: per hour (the paper's "storage volume").
    pub vm_storage_hourly: Money,
}

impl Default for PriceBook {
    fn default() -> Self {
        let mut vm_hourly = BTreeMap::new();
        vm_hourly.insert("bx2-4x16".to_string(), Money::from_dollars(0.170));
        vm_hourly.insert("bx2-8x32".to_string(), Money::from_dollars(0.340));
        vm_hourly.insert("bx2-16x64".to_string(), Money::from_dollars(0.681));
        PriceBook {
            fn_gb_second: Money::from_dollars(0.000017),
            store_class_a_per_k: Money::from_dollars(0.005),
            store_class_b_per_k: Money::from_dollars(0.0004),
            vm_hourly,
            vm_storage_hourly: Money::from_dollars(0.007),
        }
    }
}

impl PriceBook {
    /// Cost of one function invocation record.
    pub fn function_cost(&self, rec: &InvocationRecord) -> Money {
        // Micro-dollar precision on GB-s, rounded per record like real
        // bills round per 100 ms slices.
        Money::from_dollars(rec.gb_seconds() * self.fn_gb_second.as_dollars())
    }

    /// Cost of a tag's storage requests.
    pub fn store_cost(&self, m: &TagMetrics) -> Money {
        Money::from_dollars(
            m.class_a as f64 / 1000.0 * self.store_class_a_per_k.as_dollars()
                + m.class_b as f64 / 1000.0 * self.store_class_b_per_k.as_dollars(),
        )
    }

    /// Dollars per second of one function of `memory_mb` memory: the
    /// GB-second rate at that size, as [`PriceBook::function_cost`]
    /// bills a record's GB-seconds.
    pub fn fn_second_dollars(&self, memory_mb: u32) -> f64 {
        memory_mb as f64 / 1024.0 * self.fn_gb_second.as_dollars()
    }

    /// Dollars per hour of one VM of profile `profile`: its compute
    /// rate (a profile the book does not list pays $0.34) plus the boot
    /// volume.
    pub fn vm_hour_dollars(&self, profile: &str) -> f64 {
        let hourly = self
            .vm_hourly
            .get(profile)
            .copied()
            .unwrap_or_else(|| Money::from_dollars(0.34));
        hourly.as_dollars() + self.vm_storage_hourly.as_dollars()
    }

    /// Cost of one VM record up to `upto` (used when unreleased).
    pub fn vm_cost(&self, rec: &VmRecord, upto: SimTime) -> Money {
        let hours = rec.billed_duration(upto).as_secs_f64() / 3600.0;
        Money::from_dollars(hours * self.vm_hour_dollars(&rec.profile.name))
    }

    /// Assembles the full itemized report. Stage attribution uses the tag
    /// prefix before the first `/` (the executor tags everything with the
    /// stage name).
    pub fn assemble(
        &self,
        fn_records: &[InvocationRecord],
        store_metrics: &StoreMetrics,
        vm_records: &[VmRecord],
        end: SimTime,
    ) -> CostReport {
        let mut by_stage: BTreeMap<String, StageCost> = BTreeMap::new();
        let mut functions = Money::ZERO;
        for rec in fn_records {
            let cost = self.function_cost(rec);
            functions += cost;
            stage_entry(&mut by_stage, &rec.tag).functions += cost;
        }
        let mut requests = Money::ZERO;
        for (tag, m) in store_metrics.iter() {
            let cost = self.store_cost(m);
            requests += cost;
            stage_entry(&mut by_stage, tag).requests += cost;
        }
        let mut vm = Money::ZERO;
        for rec in vm_records {
            let cost = self.vm_cost(rec, end);
            vm += cost;
            if cost > Money::ZERO {
                // Scoped records (cluster tenants) bill to their scope;
                // unscoped fleets keep the aggregate "vm" row.
                let key = if rec.scope.is_empty() {
                    "vm"
                } else {
                    rec.scope.as_str()
                };
                by_stage.entry(key.to_string()).or_default().vm += cost;
            }
        }
        CostReport {
            functions,
            requests,
            vm,
            by_stage,
        }
    }
}

/// The cost row of the stage `tag` belongs to (its prefix before the
/// first `/`), created on first use: the stage name is copied once per
/// stage, not once per record.
fn stage_entry<'a>(by_stage: &'a mut BTreeMap<String, StageCost>, tag: &str) -> &'a mut StageCost {
    let stage = tag.split('/').next().unwrap_or(tag);
    if !by_stage.contains_key(stage) {
        by_stage.insert(stage.to_string(), StageCost::default());
    }
    by_stage.get_mut(stage).expect("inserted above")
}

/// Per-stage cost components.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCost {
    /// Function GB-seconds.
    pub functions: Money,
    /// Storage requests.
    pub requests: Money,
    /// VM time + volume.
    pub vm: Money,
}

impl StageCost {
    /// Sum of the components.
    pub fn total(&self) -> Money {
        self.functions + self.requests + self.vm
    }
}

/// The itemized cost of a pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostReport {
    /// Total function cost.
    pub functions: Money,
    /// Total storage-request cost.
    pub requests: Money,
    /// Total VM cost.
    pub vm: Money,
    /// Breakdown by stage (tag prefix).
    pub by_stage: BTreeMap<String, StageCost>,
}

impl CostReport {
    /// Grand total.
    pub fn total(&self) -> Money {
        self.functions + self.requests + self.vm
    }

    /// Renders the per-stage cost table the demo's tracker displays.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("stage        functions    requests          vm       total\n");
        for (stage, c) in &self.by_stage {
            out.push_str(&format!(
                "{:<12} {:>11} {:>11} {:>11} {:>11}\n",
                stage,
                c.functions.to_string(),
                c.requests.to_string(),
                c.vm.to_string(),
                c.total().to_string(),
            ));
        }
        out.push_str(&format!(
            "{:<12} {:>11} {:>11} {:>11} {:>11}\n",
            "TOTAL",
            self.functions.to_string(),
            self.requests.to_string(),
            self.vm.to_string(),
            self.total().to_string(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faaspipe_des::SimDuration;
    use faaspipe_vm::VmProfile;

    fn rec(tag: &str, secs: u64, memory_mb: u32) -> InvocationRecord {
        InvocationRecord {
            function: "f".into(),
            tag: tag.into(),
            requested: SimTime::ZERO,
            started: SimTime::ZERO,
            finished: SimTime::ZERO + SimDuration::from_secs(secs),
            memory_mb,
            cold: true,
        }
    }

    #[test]
    fn function_pricing_matches_gb_seconds() {
        let book = PriceBook::default();
        // 2 GiB for 10 s = 20 GB-s at $0.000017 = $0.00034.
        let cost = book.function_cost(&rec("sort/map", 10, 2048));
        assert_eq!(cost, Money::from_dollars(0.00034));
    }

    #[test]
    fn store_pricing_by_class() {
        let book = PriceBook::default();
        let m = TagMetrics {
            class_a: 2000,
            class_b: 10_000,
            ..TagMetrics::default()
        };
        // 2k * 0.005/k + 10k * 0.0004/k = 0.01 + 0.004.
        assert_eq!(book.store_cost(&m), Money::from_dollars(0.014));
    }

    #[test]
    fn vm_pricing_per_second_with_volume() {
        let book = PriceBook::default();
        let rec = VmRecord {
            id: 0,
            profile: VmProfile::bx2_8x32(),
            scope: String::new(),
            requested: SimTime::ZERO,
            ready: SimTime::ZERO + SimDuration::from_secs(52),
            released: Some(SimTime::ZERO + SimDuration::from_secs(3600)),
        };
        let cost = book.vm_cost(&rec, SimTime::MAX);
        assert_eq!(cost, Money::from_dollars(0.347));
    }

    #[test]
    fn scoped_vm_records_bill_to_their_tenant() {
        let book = PriceBook::default();
        let mk = |scope: &str| VmRecord {
            id: 0,
            profile: VmProfile::bx2_8x32(),
            scope: scope.to_string(),
            requested: SimTime::ZERO,
            ready: SimTime::ZERO,
            released: Some(SimTime::ZERO + SimDuration::from_secs(3600)),
        };
        let report = book.assemble(
            &[],
            &StoreMetrics::new(),
            &[mk("t0"), mk("t1"), mk("")],
            SimTime::ZERO,
        );
        assert_eq!(report.by_stage["t0"].vm, Money::from_dollars(0.347));
        assert_eq!(report.by_stage["t1"].vm, Money::from_dollars(0.347));
        assert_eq!(report.by_stage["vm"].vm, Money::from_dollars(0.347));
        assert_eq!(report.vm, Money::from_dollars(0.347 * 3.0));
    }

    #[test]
    fn assemble_attributes_stages_by_tag_prefix() {
        let book = PriceBook::default();
        let fns = vec![rec("sort/map", 10, 2048), rec("encode/enc", 5, 2048)];
        let mut metrics = StoreMetrics::new();
        for _ in 0..1000 {
            metrics.record(
                "sort/map",
                faaspipe_store::RequestClass::ClassA,
                0,
                0,
                false,
            );
        }
        let report = book.assemble(&fns, &metrics, &[], SimTime::ZERO);
        assert_eq!(report.by_stage.len(), 2);
        let sort = &report.by_stage["sort"];
        assert_eq!(sort.requests, Money::from_dollars(0.005));
        assert_eq!(sort.functions, Money::from_dollars(0.00034));
        assert_eq!(
            report.total(),
            report.functions + report.requests + report.vm
        );
        let rendered = report.render();
        assert!(rendered.contains("sort"));
        assert!(rendered.contains("TOTAL"));
    }

    #[test]
    fn unknown_vm_profile_gets_fallback_price() {
        let book = PriceBook::default();
        let mut profile = VmProfile::bx2_8x32();
        profile.name = "custom-1x1".into();
        let rec = VmRecord {
            id: 0,
            profile,
            scope: String::new(),
            requested: SimTime::ZERO,
            ready: SimTime::ZERO,
            released: Some(SimTime::ZERO + SimDuration::from_secs(3600)),
        };
        assert_eq!(book.vm_cost(&rec, SimTime::MAX), Money::from_dollars(0.347));
    }
}

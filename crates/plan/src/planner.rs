//! Enumerating and pruning the (W, K, backend, shards) space.
//!
//! The planner walks a ladder of worker counts, a ladder of I/O
//! windows, and every exchange-backend family (scatter, coalesced,
//! direct, and the relay with each shard count × {cold, prewarm}),
//! asks the model ([`ModelParams::estimate`]) for each candidate, and
//! keeps the predicted-fastest configuration with a deterministic
//! tie-break (makespan, then bill, then fewer workers, then smaller
//! window, then enumeration order).
//!
//! Before expanding a worker count's (K, backend) sub-space, the
//! planner checks the model's cheap per-W lower bound
//! ([`ModelParams::lower_bound`]) against the best makespan found so
//! far and skips the whole sub-space when even the bound cannot win.
//! Pruning is *sound* for ranking — the bound never exceeds any real
//! estimate — so the pruned search returns exactly the exhaustive
//! search's pick (asserted by a test below), just after fewer model
//! evaluations. The whole search is closed-form arithmetic: the
//! Criterion bench (`benches/plan.rs`) keeps a full enumeration well
//! under a millisecond, which is what makes `--exchange auto` free at
//! stage-launch time.

use std::cmp::Ordering;

use faaspipe_exchange::ExchangeKind;

use crate::model::{Candidate, Estimate, ModelParams, Workload};

/// The candidate grid the planner enumerates. [`SearchSpace::default`]
/// covers the paper's experimental ranges; constraints narrow it when
/// the user pins a dimension (e.g. `--workers 16 --exchange auto` plans
/// only K, backend, and shards; `"workers": "auto"` with an explicit
/// backend plans only W).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpace {
    /// Worker-count ladder (ascending).
    pub workers: Vec<usize>,
    /// I/O-window ladder (ascending).
    pub io_windows: Vec<usize>,
    /// Concrete exchange backends, in enumeration order (the last
    /// tie-break).
    pub backends: Vec<ExchangeKind>,
}

impl Default for SearchSpace {
    /// Every backend family: scatter, coalesced, direct, and the relay
    /// with 1, 2, 4 and 8 shards, each cold and pre-warmed. One cold
    /// shard is named [`ExchangeKind::VmRelay`] so explicit-backend runs
    /// and planned runs name identical configurations.
    fn default() -> SearchSpace {
        let mut backends = vec![
            ExchangeKind::Scatter,
            ExchangeKind::Coalesced,
            ExchangeKind::Direct,
        ];
        for shards in [1, 2, 4, 8] {
            for prewarm in [false, true] {
                backends.push(if shards == 1 && !prewarm {
                    ExchangeKind::VmRelay
                } else {
                    ExchangeKind::ShardedRelay { shards, prewarm }
                });
            }
        }
        SearchSpace {
            workers: vec![2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256],
            io_windows: vec![1, 2, 4, 8, 16],
            backends,
        }
    }
}

impl SearchSpace {
    /// Drops worker counts above `cap` (the platform's account limit or
    /// the executor's `workers: auto` ceiling). Always keeps at least
    /// the smallest rung, clamped to the cap.
    pub fn cap_workers(mut self, cap: usize) -> SearchSpace {
        let cap = cap.max(1);
        self.workers.retain(|&w| w <= cap);
        if self.workers.is_empty() {
            self.workers.push(cap);
        }
        self
    }

    /// Pins the worker count (a `"workers": N` spec with
    /// `"exchange": "auto"` plans only the remaining dimensions).
    pub fn pin_workers(mut self, w: usize) -> SearchSpace {
        self.workers = vec![w.max(1)];
        self
    }

    /// Pins the I/O window.
    pub fn pin_io(mut self, k: usize) -> SearchSpace {
        self.io_windows = vec![k.max(1)];
        self
    }

    /// Pins the exchange backend (a `"workers": "auto"` spec with an
    /// explicit backend plans only W and K).
    ///
    /// # Panics
    /// Panics if `kind` is [`ExchangeKind::Auto`]: the planner only
    /// evaluates concrete backends.
    pub fn pin_backend(mut self, kind: ExchangeKind) -> SearchSpace {
        assert!(
            kind != ExchangeKind::Auto,
            "pin a concrete backend, not auto"
        );
        self.backends = vec![kind];
        self
    }
}

/// The planner's pick: a fully concrete configuration, the model's
/// prediction for it, and search statistics for the trace span.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Chosen worker count W.
    pub workers: usize,
    /// Chosen I/O window K.
    pub io_concurrency: usize,
    /// Chosen backend — always concrete, never [`ExchangeKind::Auto`].
    pub exchange: ExchangeKind,
    /// The model's estimate for the chosen configuration.
    pub predicted: Estimate,
    /// Candidates the model evaluated.
    pub evaluated: usize,
    /// Candidates skipped by the per-W lower-bound prune.
    pub pruned: usize,
}

/// The planner's ranking: predicted makespan, then bill, then fewer
/// workers, then the smaller window. Equal keys keep the candidate seen
/// first.
fn rank(cand: &Candidate, est: &Estimate) -> (f64, f64, usize, usize) {
    (
        est.makespan_s,
        est.cost_dollars,
        cand.workers,
        cand.io_concurrency,
    )
}

/// Whether `a` ranks strictly before `b`.
fn before<T: PartialOrd>(a: &T, b: &T) -> bool {
    a.partial_cmp(b) == Some(Ordering::Less)
}

/// Searches a [`SearchSpace`] against a [`ModelParams`] fit.
#[derive(Debug, Clone)]
pub struct Planner {
    /// Model parameters (calibrated or config-derived).
    pub params: ModelParams,
    /// Candidate grid.
    pub space: SearchSpace,
}

impl Planner {
    /// A planner over the default grid.
    pub fn new(params: ModelParams) -> Planner {
        Planner {
            params,
            space: SearchSpace::default(),
        }
    }

    /// Replaces the candidate grid.
    pub fn with_space(mut self, space: SearchSpace) -> Planner {
        self.space = space;
        self
    }

    /// Every candidate of the grid with the model's estimate, in the
    /// planner's walk order: worker counts top-down, then windows, then
    /// backends.
    pub fn estimates<'a>(
        &'a self,
        wl: &'a Workload,
    ) -> impl Iterator<Item = (Candidate, Estimate)> + 'a {
        self.space.workers.iter().rev().flat_map(move |&workers| {
            self.space
                .io_windows
                .iter()
                .flat_map(move |&io_concurrency| {
                    self.space.backends.iter().map(move |&exchange| {
                        let cand = Candidate {
                            workers,
                            io_concurrency,
                            exchange,
                        };
                        (cand, self.params.estimate(wl, &cand))
                    })
                })
        })
    }

    /// Runs the pruned search and returns the predicted-optimal plan.
    ///
    /// Deterministic: the grid is walked in a fixed order and ties
    /// break on (makespan, bill, fewer workers, smaller window, first
    /// seen), so a given (params, space, workload) always yields the
    /// same plan.
    ///
    /// # Panics
    /// Panics if a dimension of the search space is empty.
    pub fn plan(&self, wl: &Workload) -> Plan {
        let cell = self.space.io_windows.len() * self.space.backends.len();
        let mut best: Option<(Candidate, Estimate)> = None;
        let mut evaluated = 0;
        let mut pruned = 0;
        // Walk the ladder top-down: wide fleets have small per-function
        // transfers, so a strong incumbent appears early and the
        // transfer-dominated small-W sub-spaces fail the bound.
        for &w in self.space.workers.iter().rev() {
            if let Some((_, b)) = &best {
                if self.params.lower_bound(wl, w) >= b.makespan_s {
                    pruned += cell;
                    continue;
                }
            }
            for &io_concurrency in &self.space.io_windows {
                for &exchange in &self.space.backends {
                    let cand = Candidate {
                        workers: w,
                        io_concurrency,
                        exchange,
                    };
                    let est = self.params.estimate(wl, &cand);
                    evaluated += 1;
                    if best
                        .as_ref()
                        .is_none_or(|(bc, be)| before(&rank(&cand, &est), &rank(bc, be)))
                    {
                        best = Some((cand, est));
                    }
                }
            }
        }
        let (cand, predicted) = best.expect("search space is never empty");
        Plan {
            workers: cand.workers,
            io_concurrency: cand.io_concurrency,
            exchange: cand.exchange,
            predicted,
            evaluated,
            pruned,
        }
    }

    /// The fastest plan whose predicted bill stays within
    /// `budget_dollars`, ranked like [`Planner::plan`]; when nothing
    /// fits, the cheapest plan (ties on makespan, then the same order).
    /// Exhaustive: the lower-bound prune ranks by makespan alone.
    ///
    /// # Panics
    /// Panics if a dimension of the search space is empty.
    pub fn plan_within_budget(&self, wl: &Workload, budget_dollars: f64) -> Plan {
        let mut fastest: Option<(Candidate, Estimate)> = None;
        let mut cheapest: Option<(Candidate, Estimate)> = None;
        let mut evaluated = 0;
        let by_cost = |c: &Candidate, e: &Estimate| (e.cost_dollars, rank(c, e));
        for (cand, est) in self.estimates(wl) {
            evaluated += 1;
            if est.cost_dollars <= budget_dollars
                && fastest
                    .as_ref()
                    .is_none_or(|(bc, be)| before(&rank(&cand, &est), &rank(bc, be)))
            {
                fastest = Some((cand, est));
            }
            if cheapest
                .as_ref()
                .is_none_or(|(bc, be)| before(&by_cost(&cand, &est), &by_cost(bc, be)))
            {
                cheapest = Some((cand, est));
            }
        }
        let (cand, predicted) = fastest.or(cheapest).expect("search space is never empty");
        Plan {
            workers: cand.workers,
            io_concurrency: cand.io_concurrency,
            exchange: cand.exchange,
            predicted,
            evaluated,
            pruned: 0,
        }
    }

    /// The latency/cost Pareto frontier: every candidate that no other
    /// candidate beats on both predicted makespan and bill, cheapest
    /// (and slowest) first.
    pub fn pareto(&self, wl: &Workload) -> Vec<(Candidate, Estimate)> {
        let mut points: Vec<(Candidate, Estimate)> = self.estimates(wl).collect();
        points.sort_by(|(ac, ae), (bc, be)| {
            (ae.cost_dollars, rank(ac, ae))
                .partial_cmp(&(be.cost_dollars, rank(bc, be)))
                .unwrap_or(Ordering::Equal)
        });
        let mut frontier: Vec<(Candidate, Estimate)> = Vec::new();
        for (cand, est) in points {
            if frontier
                .last()
                .is_none_or(|(_, last)| est.makespan_s < last.makespan_s)
            {
                frontier.push((cand, est));
            }
        }
        frontier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faaspipe_exchange::{DirectConfig, RelayConfig};
    use faaspipe_faas::FaasConfig;
    use faaspipe_shuffle::WorkModel;
    use faaspipe_store::StoreConfig;

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

    #[test]
    fn plan_is_concrete_and_deterministic() {
        let planner = Planner::new(params());
        let wl = workload();
        let a = planner.plan(&wl);
        let b = planner.plan(&wl);
        assert_eq!(a, b);
        assert!(a.exchange != ExchangeKind::Auto);
        assert!(a.workers >= 2 && a.io_concurrency >= 1);
        assert!(a.evaluated > 0);
    }

    #[test]
    fn pruning_matches_the_exhaustive_search() {
        let planner = Planner::new(params());
        let wl = workload();
        let pruned = planner.plan(&wl);
        // Exhaustive reference: every candidate, no bound.
        let mut best: Option<(Candidate, Estimate)> = None;
        for (cand, est) in planner.estimates(&wl) {
            if best
                .as_ref()
                .is_none_or(|(bc, be)| before(&rank(&cand, &est), &rank(bc, be)))
            {
                best = Some((cand, est));
            }
        }
        let (best, _) = best.unwrap();
        assert_eq!(pruned.workers, best.workers);
        assert_eq!(pruned.io_concurrency, best.io_concurrency);
        assert_eq!(pruned.exchange, best.exchange);
        assert!(pruned.pruned > 0, "the bound should skip some sub-spaces");
        assert_eq!(
            pruned.evaluated + pruned.pruned,
            planner.estimates(&wl).count()
        );
    }

    #[test]
    fn pinned_dimensions_are_respected() {
        let plan = Planner::new(params())
            .with_space(SearchSpace::default().pin_workers(16).pin_io(4))
            .plan(&workload());
        assert_eq!(plan.workers, 16);
        assert_eq!(plan.io_concurrency, 4);
    }

    #[test]
    fn cap_keeps_at_least_one_rung() {
        let space = SearchSpace::default().cap_workers(1);
        assert_eq!(space.workers, vec![1]);
        let space = SearchSpace::default().cap_workers(64);
        assert!(space.workers.iter().all(|&w| w <= 64));
    }

    #[test]
    fn planner_beats_or_matches_the_naive_default() {
        // The pick must be at least as good as the untuned W=8, K=1
        // scatter configuration the paper starts from.
        let p = params();
        let wl = workload();
        let plan = Planner::new(p.clone()).plan(&wl);
        let naive = p.estimate(
            &wl,
            &Candidate {
                workers: 8,
                io_concurrency: 1,
                exchange: ExchangeKind::Scatter,
            },
        );
        assert!(plan.predicted.makespan_s <= naive.makespan_s);
    }

    #[test]
    fn relay_single_cold_shard_is_named_vm_relay() {
        let backends = SearchSpace::default().backends;
        assert!(backends.contains(&ExchangeKind::VmRelay));
        assert!(!backends.contains(&ExchangeKind::ShardedRelay {
            shards: 1,
            prewarm: false
        }));
    }

    #[test]
    fn pinned_backend_narrows_the_search_to_w_and_k() {
        let plan = Planner::new(params())
            .with_space(
                SearchSpace::default()
                    .pin_backend(ExchangeKind::Scatter)
                    .pin_io(4),
            )
            .plan(&workload());
        assert_eq!(plan.exchange, ExchangeKind::Scatter);
        assert_eq!(plan.io_concurrency, 4);
        assert!(plan.evaluated + plan.pruned == SearchSpace::default().workers.len());
    }

    /// A W-only planner over the scatter stage, as `workers: auto`
    /// with an explicit backend plans it.
    fn scatter_planner() -> Planner {
        Planner::new(params()).with_space(
            SearchSpace::default()
                .pin_backend(ExchangeKind::Scatter)
                .pin_io(4),
        )
    }

    #[test]
    fn budget_constrained_planning_trades_latency_for_cost() {
        let planner = scatter_planner();
        let wl = workload();
        let fastest = planner.plan(&wl);
        // An unbounded budget reproduces the latency optimum.
        let rich = planner.plan_within_budget(&wl, f64::INFINITY);
        assert_eq!(
            (rich.workers, rich.predicted),
            (fastest.workers, fastest.predicted)
        );
        // Half the optimum's bill buys a plan that fits and is no faster.
        let budget = fastest.predicted.cost_dollars / 2.0;
        let tight = planner.plan_within_budget(&wl, budget);
        assert!(tight.predicted.cost_dollars <= budget);
        assert!(tight.workers < fastest.workers);
        assert!(tight.predicted.makespan_s >= fastest.predicted.makespan_s);
    }

    #[test]
    fn impossible_budget_falls_back_to_the_cheapest_plan() {
        let planner = scatter_planner();
        let wl = workload();
        let plan = planner.plan_within_budget(&wl, 0.0);
        for (_, est) in planner.estimates(&wl) {
            assert!(plan.predicted.cost_dollars <= est.cost_dollars);
        }
    }

    #[test]
    fn pareto_frontier_is_monotone_and_holds_the_optimum() {
        let planner = scatter_planner();
        let wl = workload();
        let frontier = planner.pareto(&wl);
        assert!(frontier.len() > 1);
        // Cheapest first: along the frontier cost rises and latency
        // falls, so no point dominates another.
        for pair in frontier.windows(2) {
            assert!(pair[0].1.cost_dollars <= pair[1].1.cost_dollars);
            assert!(pair[0].1.makespan_s > pair[1].1.makespan_s);
        }
        let best = planner.plan(&wl);
        let last = frontier.last().unwrap();
        assert_eq!((last.0.workers, last.1), (best.workers, best.predicted));
        // Every candidate is on or behind the frontier.
        for (_, est) in planner.estimates(&wl) {
            assert!(
                frontier
                    .iter()
                    .any(|(_, f)| f.cost_dollars <= est.cost_dollars
                        && f.makespan_s <= est.makespan_s)
            );
        }
    }

    #[test]
    fn scarce_store_operations_want_fewer_workers() {
        let starved = ModelParams {
            store_ops_per_sec: 100.0,
            ..params()
        };
        let rich = ModelParams {
            store_ops_per_sec: 10_000.0,
            ..params()
        };
        let wl = workload();
        let pick = |params: ModelParams| {
            Planner {
                params,
                ..scatter_planner()
            }
            .plan(&wl)
            .workers
        };
        assert!(pick(starved) < pick(rich));
    }
}

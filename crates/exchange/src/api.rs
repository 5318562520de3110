//! The [`DataExchange`] trait and backend selection types.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use bytes::Bytes;
use faaspipe_des::{Ctx, FlowLinks, LocalBoxFuture};

use crate::error::{ExchangeError, ExchangeParseError, ExchangeParseIssue};

/// How an object-store backend lays intermediates out across keys.
///
/// `Scatter` is the naive pattern: W² small objects. `Coalesced` is the
/// Primula-style I/O optimization: each mapper writes **one** object with
/// its partitions concatenated, and reducers issue byte-range GETs — the
/// same data volume with W× fewer class-A (write) requests and one
/// request-latency hit per mapper instead of W.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExchangeStrategy {
    /// One object per (mapper, reducer) pair.
    #[default]
    Scatter,
    /// One object per mapper; reducers range-read their slice.
    Coalesced,
}

/// The most relay shards an exchange string may ask for. Each shard is a
/// provisioned VM and a relay built per shard, so an unchecked count sizes
/// an allocation; this ceiling is far above the 8 shards E16 sweeps.
pub const MAX_RELAY_SHARDS: usize = 1_024;

/// The full exchange-backend menu a pipeline stage can pick from: the
/// two object-store layouts plus the VM-relay and direct-streaming
/// backends. This is the value that flows through DAG specs, pipeline
/// configs, and the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExchangeKind {
    /// Object store, one object per (mapper, reducer) pair.
    #[default]
    Scatter,
    /// Object store, one coalesced object per mapper.
    Coalesced,
    /// Pocket-style in-memory relay on one provisioned VM: the paper's
    /// VM-driven exchange, run as a cold one-shard relay fleet (the
    /// same backend as `ShardedRelay { shards: 1, prewarm: false }`).
    VmRelay,
    /// Rendezvous function-to-function streaming.
    Direct,
    /// A fleet of relay VMs with hashed partition routing; `prewarm`
    /// overlaps provisioning with the caller's next phase.
    ShardedRelay {
        /// Number of relay VMs (clamped to at least 1; parsing rejects
        /// counts above [`MAX_RELAY_SHARDS`]).
        shards: usize,
        /// Boot the shards in the background instead of blocking
        /// `prepare`.
        prewarm: bool,
    },
    /// Let the planner (`faaspipe-plan`) pick the backend — together
    /// with W, K, and shard count — from its calibrated cost/latency
    /// model. The executor resolves this to one of the concrete kinds
    /// before the stage launches; it never reaches a backend factory.
    Auto,
}

impl ExchangeKind {
    /// Every parameterless kind, in sweep order. `ShardedRelay` takes
    /// parameters and is swept explicitly where needed (E16).
    pub const ALL: [ExchangeKind; 4] = [
        ExchangeKind::Scatter,
        ExchangeKind::Coalesced,
        ExchangeKind::VmRelay,
        ExchangeKind::Direct,
    ];

    /// The base spec-file / CLI spelling, without parameters — see
    /// [`Display`](fmt::Display) for the full round-trippable form
    /// (`sharded_relay:4:prewarm`).
    pub fn as_str(self) -> &'static str {
        match self {
            ExchangeKind::Scatter => "scatter",
            ExchangeKind::Coalesced => "coalesced",
            ExchangeKind::VmRelay => "vm_relay",
            ExchangeKind::Direct => "direct",
            ExchangeKind::ShardedRelay { .. } => "sharded_relay",
            ExchangeKind::Auto => "auto",
        }
    }

    /// The relay fleet this kind runs on, as `(shards, prewarm)`:
    /// `vm_relay` is one cold shard. `None` for every other backend.
    pub fn relay_shards(self) -> Option<(usize, bool)> {
        match self {
            ExchangeKind::VmRelay => Some((1, false)),
            ExchangeKind::ShardedRelay { shards, prewarm } => Some((shards, prewarm)),
            _ => None,
        }
    }

    /// The object-store layout this kind implies. Non-store backends
    /// report `Scatter` (the layout is then unused).
    pub fn layout(self) -> ExchangeStrategy {
        match self {
            ExchangeKind::Coalesced => ExchangeStrategy::Coalesced,
            _ => ExchangeStrategy::Scatter,
        }
    }
}

impl fmt::Display for ExchangeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ExchangeKind::ShardedRelay { shards, prewarm } => {
                write!(f, "sharded_relay:{}", shards)?;
                if prewarm {
                    f.write_str(":prewarm")?;
                }
                Ok(())
            }
            kind => f.write_str(kind.as_str()),
        }
    }
}

impl FromStr for ExchangeKind {
    type Err = ExchangeParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let fail = |issue| {
            Err(ExchangeParseError {
                input: s.to_string(),
                issue,
            })
        };
        match s {
            "scatter" => Ok(ExchangeKind::Scatter),
            "coalesced" => Ok(ExchangeKind::Coalesced),
            "vm_relay" => Ok(ExchangeKind::VmRelay),
            "direct" => Ok(ExchangeKind::Direct),
            "auto" => Ok(ExchangeKind::Auto),
            other => {
                // `sharded_relay[:N][:prewarm]` — e.g. `sharded_relay`,
                // `sharded_relay:8`, `sharded_relay:4:prewarm`.
                let mut parts = other.split(':');
                if parts.next() == Some("sharded_relay") {
                    let mut shards = 4usize;
                    let mut prewarm = false;
                    for part in parts {
                        if part == "prewarm" {
                            prewarm = true;
                        } else if let Ok(n) = part.parse::<usize>() {
                            if n == 0 {
                                return fail(ExchangeParseIssue::ZeroShards);
                            }
                            if n > MAX_RELAY_SHARDS {
                                return fail(ExchangeParseIssue::TooManyShards { shards: n });
                            }
                            shards = n;
                        } else {
                            return fail(ExchangeParseIssue::UnknownParameter {
                                parameter: part.to_string(),
                            });
                        }
                    }
                    return Ok(ExchangeKind::ShardedRelay { shards, prewarm });
                }
                fail(ExchangeParseIssue::UnknownKind)
            }
        }
    }
}

impl From<ExchangeStrategy> for ExchangeKind {
    fn from(s: ExchangeStrategy) -> Self {
        match s {
            ExchangeStrategy::Scatter => ExchangeKind::Scatter,
            ExchangeStrategy::Coalesced => ExchangeKind::Coalesced,
        }
    }
}

/// Per-caller context a backend needs to charge the right resources:
/// which NIC links the traffic traverses, how requests are tagged for
/// metrics/billing, and the retry budget.
#[derive(Debug, Clone)]
pub struct ExchangeEnv {
    /// Links on the caller's side of every transfer (e.g. the function
    /// container's NIC). Empty for driver-side calls.
    pub host_links: FlowLinks,
    /// Metrics/billing tag, `"{sort-tag}/{phase}"` by convention. Shared:
    /// every store connection the backend opens for this caller reuses
    /// it.
    pub tag: Arc<str>,
    /// Attempts per exchange request (fed to
    /// [`with_retry`](crate::with_retry)).
    pub retries: u32,
    /// Maximum concurrent in-flight requests one
    /// [`write_run`](DataExchange::write_run) or
    /// [`read_gather`](DataExchange::read_gather) call keeps open. A call
    /// that issues several requests runs them on helper processes
    /// through one request window ([`windowed`](crate::windowed)); a
    /// window of `1` (or `0`) is one helper issuing one request at a
    /// time.
    pub io_window: usize,
}

impl ExchangeEnv {
    /// An env for driver-side calls (no NIC, a bare tag, `retries`
    /// attempts, a window of one).
    pub fn driver(tag: impl Into<Arc<str>>, retries: u32) -> ExchangeEnv {
        ExchangeEnv {
            host_links: FlowLinks::new(),
            tag: tag.into(),
            retries,
            io_window: 1,
        }
    }
}

/// An all-to-all intermediate data exchange between W mappers and W
/// reducers.
///
/// The shuffle calls [`prepare`](DataExchange::prepare) once from the
/// driver, then every mapper hands its sorted run and cut list to
/// [`write_run`](DataExchange::write_run), every reducer pulls its
/// column with [`read_gather`](DataExchange::read_gather), and the
/// driver ends with [`cleanup`](DataExchange::cleanup). Each backend has
/// exactly one write path and one read path; wherever a call issues
/// several requests, at most `env.io_window` are in flight. All methods
/// charge virtual time (latency, bandwidth via the fluid-flow network,
/// provisioning where applicable) and record trace spans; all transient
/// faults are absorbed by the shared retry helper using `env.retries`.
///
/// Implementations must be idempotent under re-invocation: a crashed
/// mapper's re-run re-writes the same partitions, a reducer may gather
/// the same column twice.
///
/// Every method returns a boxed local future, so the trait stays
/// object-safe.
pub trait DataExchange: fmt::Debug + Send + Sync {
    /// A short stable name for traces and tables (e.g. `"cos"`,
    /// `"sharded-relay"`, `"direct"`).
    fn name(&self) -> &'static str;

    /// Driver-side setup before the map phase: allocates bookkeeping for
    /// a `maps` × `parts` exchange and provisions backing resources (a
    /// cold relay fleet pays its provisioning delay here).
    fn prepare<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        maps: usize,
        parts: usize,
    ) -> LocalBoxFuture<'a, Result<(), ExchangeError>>;

    /// Stores mapper `map`'s partitions, given as one contiguous `run`
    /// buffer plus its sparse cut list: `cuts[i] = (part, offset, len)`
    /// says partition `part` is `run[offset..offset + len]`, cuts are
    /// part-ascending and non-overlapping, and every partition in
    /// `0..parts_len` absent from `cuts` is empty. Returns the number of
    /// payload bytes written.
    ///
    /// A backend that stores the concatenation anyway (the coalesced
    /// object-store layout) does O(cuts) host work; the others store or
    /// register one object per partition, empty ones included.
    fn write_run<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        env: &'a ExchangeEnv,
        map: usize,
        run: Bytes,
        cuts: Vec<(u32, u64, u64)>,
        parts_len: usize,
    ) -> LocalBoxFuture<'a, Result<u64, ExchangeError>>;

    /// A reducer's whole-column gather: the non-empty runs of partition
    /// `part` from mappers `0..maps`, in ascending mapper order, with up
    /// to `env.io_window` requests in flight (sharing the caller's NIC
    /// links).
    ///
    /// Zero-length runs are left out of the result. Dropping them is
    /// merge-neutral: a k-way merge's output never depends on the empty
    /// runs' positions. A backend whose bookkeeping knows which
    /// partitions are empty (the coalesced layout) issues no request for
    /// them and does work proportional to the non-empty runs only.
    ///
    /// # Errors
    /// [`ExchangeError::MissingPartition`] if any mapper in `0..maps`
    /// never wrote partition `part` (the direct backend waits out its
    /// rendezvous window for a late writer and then fails with
    /// [`ExchangeError::PeerTimeout`]).
    fn read_gather<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        env: &'a ExchangeEnv,
        maps: usize,
        part: usize,
    ) -> LocalBoxFuture<'a, Result<Vec<Bytes>, ExchangeError>>;

    /// Driver-side teardown after the reduce phase: releases backing
    /// resources (the VM-relay backend stops its billing clock here).
    fn cleanup<'a>(
        &'a self,
        ctx: &'a mut Ctx,
        env: &'a ExchangeEnv,
    ) -> LocalBoxFuture<'a, Result<(), ExchangeError>>;
}

/// The dense partition vector of a [`DataExchange::write_run`] call:
/// zero-copy slices of `run` for the cut partitions, empty buffers for
/// the other slots of `0..parts_len`.
pub(crate) fn dense_parts(run: &Bytes, cuts: &[(u32, u64, u64)], parts_len: usize) -> Vec<Bytes> {
    let mut parts = vec![Bytes::new(); parts_len];
    for &(part, off, len) in cuts {
        parts[part as usize] = run.slice(off as usize..(off + len) as usize);
    }
    parts
}

/// The inverse of [`dense_parts`], for tests that state partitions
/// densely: the concatenated run and the cuts of its non-empty parts.
#[cfg(test)]
pub(crate) fn run_of(parts: &[Bytes]) -> (Bytes, Vec<(u32, u64, u64)>) {
    let mut run = Vec::new();
    let mut cuts = Vec::new();
    for (j, data) in parts.iter().enumerate() {
        if !data.is_empty() {
            cuts.push((j as u32, run.len() as u64, data.len() as u64));
        }
        run.extend_from_slice(data);
    }
    (Bytes::from(run), cuts)
}

/// Writes mapper `map`'s dense `parts` through
/// [`DataExchange::write_run`], as the shuffle's mappers do.
#[cfg(test)]
pub(crate) async fn write_parts(
    ex: &dyn DataExchange,
    ctx: &mut Ctx,
    env: &ExchangeEnv,
    map: usize,
    parts: Vec<Bytes>,
) -> Result<u64, ExchangeError> {
    let (run, cuts) = run_of(&parts);
    ex.write_run(ctx, env, map, run, cuts, parts.len()).await
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::error::EXCHANGE_KIND_FORMS;

    #[test]
    fn kind_round_trips_through_strings() {
        for kind in ExchangeKind::ALL {
            assert_eq!(kind.to_string().parse::<ExchangeKind>().unwrap(), kind);
        }
        assert_eq!("auto".parse::<ExchangeKind>().unwrap(), ExchangeKind::Auto);
        assert_eq!(ExchangeKind::Auto.to_string(), "auto");
        assert!("quantum".parse::<ExchangeKind>().is_err());
    }

    #[test]
    fn parse_errors_list_the_valid_forms() {
        for bad in ["quantum", "sharded_relay:0", "sharded_relay:fast", ""] {
            let err = bad.parse::<ExchangeKind>().unwrap_err();
            assert_eq!(err.input, bad);
            let msg = err.to_string();
            assert!(
                msg.contains(EXCHANGE_KIND_FORMS),
                "error for '{}' must list the valid forms, got: {}",
                bad,
                msg
            );
        }
        assert!("sharded_relay:fast"
            .parse::<ExchangeKind>()
            .unwrap_err()
            .to_string()
            .contains("unknown parameter 'fast'"));
    }

    fn any_kind() -> impl Strategy<Value = ExchangeKind> {
        prop_oneof![
            Just(ExchangeKind::Scatter),
            Just(ExchangeKind::Coalesced),
            Just(ExchangeKind::VmRelay),
            Just(ExchangeKind::Direct),
            Just(ExchangeKind::Auto),
            (1usize..512, any::<bool>())
                .prop_map(|(shards, prewarm)| ExchangeKind::ShardedRelay { shards, prewarm }),
        ]
    }

    proptest! {
        #[test]
        fn display_from_str_round_trips(kind in any_kind()) {
            let text = kind.to_string();
            prop_assert_eq!(text.parse::<ExchangeKind>().unwrap(), kind);
        }

        #[test]
        fn junk_never_parses_and_always_names_the_grammar(
            text in proptest::collection::vec(0usize..38, 0..24).prop_map(|ix| {
                const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_:";
                ix.into_iter().map(|i| CHARS[i] as char).collect::<String>()
            }),
        ) {
            // Skip the strings that *are* in the grammar.
            if let Err(err) = text.parse::<ExchangeKind>() {
                prop_assert!(err.to_string().contains(EXCHANGE_KIND_FORMS));
                prop_assert_eq!(err.input, text);
            }
        }
    }

    #[test]
    fn sharded_kind_round_trips_with_parameters() {
        for (shards, prewarm) in [(1, false), (4, true), (8, false), (8, true)] {
            let kind = ExchangeKind::ShardedRelay { shards, prewarm };
            assert_eq!(kind.to_string().parse::<ExchangeKind>().unwrap(), kind);
        }
        assert_eq!(
            "sharded_relay:4:prewarm".to_string(),
            ExchangeKind::ShardedRelay {
                shards: 4,
                prewarm: true
            }
            .to_string()
        );
        // Bare and partial spellings default to 4 shards, no prewarm.
        assert_eq!(
            "sharded_relay".parse::<ExchangeKind>().unwrap(),
            ExchangeKind::ShardedRelay {
                shards: 4,
                prewarm: false
            }
        );
        assert_eq!(
            "sharded_relay:prewarm".parse::<ExchangeKind>().unwrap(),
            ExchangeKind::ShardedRelay {
                shards: 4,
                prewarm: true
            }
        );
        assert_eq!(
            "sharded_relay:2".parse::<ExchangeKind>().unwrap(),
            ExchangeKind::ShardedRelay {
                shards: 2,
                prewarm: false
            }
        );
        assert!("sharded_relay:0".parse::<ExchangeKind>().is_err());
        assert!("sharded_relay:fast".parse::<ExchangeKind>().is_err());
    }

    #[test]
    fn shard_counts_stop_at_the_ceiling() {
        let top = format!("sharded_relay:{}", MAX_RELAY_SHARDS);
        assert_eq!(
            top.parse::<ExchangeKind>().unwrap(),
            ExchangeKind::ShardedRelay {
                shards: MAX_RELAY_SHARDS,
                prewarm: false
            }
        );
        for shards in [MAX_RELAY_SHARDS + 1, 100_000_000_000] {
            let text = format!("sharded_relay:{}:prewarm", shards);
            let err = text.parse::<ExchangeKind>().unwrap_err();
            assert_eq!(err.issue, ExchangeParseIssue::TooManyShards { shards });
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("ceiling of {}", MAX_RELAY_SHARDS)),
                "{}",
                msg
            );
            assert!(msg.contains(EXCHANGE_KIND_FORMS));
        }
    }

    #[test]
    fn kind_layouts() {
        assert_eq!(ExchangeKind::Scatter.layout(), ExchangeStrategy::Scatter);
        assert_eq!(
            ExchangeKind::Coalesced.layout(),
            ExchangeStrategy::Coalesced
        );
        assert_eq!(ExchangeKind::VmRelay.layout(), ExchangeStrategy::Scatter);
        assert_eq!(ExchangeKind::Direct.layout(), ExchangeStrategy::Scatter);
        assert_eq!(
            ExchangeKind::ShardedRelay {
                shards: 4,
                prewarm: true
            }
            .layout(),
            ExchangeStrategy::Scatter
        );
    }

    #[test]
    fn kind_from_strategy() {
        assert_eq!(
            ExchangeKind::from(ExchangeStrategy::Coalesced),
            ExchangeKind::Coalesced
        );
        assert_eq!(
            ExchangeKind::from(ExchangeStrategy::Scatter),
            ExchangeKind::Scatter
        );
    }

    #[test]
    fn dense_parts_inverts_run_of() {
        let parts = vec![
            Bytes::from("aa"),
            Bytes::new(),
            Bytes::from("cccc"),
            Bytes::new(),
        ];
        let (run, cuts) = run_of(&parts);
        assert_eq!(run, Bytes::from("aacccc"));
        assert_eq!(cuts, vec![(0, 0, 2), (2, 2, 4)]);
        assert_eq!(dense_parts(&run, &cuts, parts.len()), parts);
    }

    #[test]
    fn driver_env_has_no_links() {
        let env = ExchangeEnv::driver("sort/driver", 3);
        assert!(env.host_links.is_empty());
        assert_eq!(&*env.tag, "sort/driver");
        assert_eq!(env.retries, 3);
        assert_eq!(env.io_window, 1, "driver calls keep a window of one");
    }
}

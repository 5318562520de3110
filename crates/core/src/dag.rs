//! Workflows as DAGs of stages.
//!
//! "DAG nodes correspond to serverless functions and edges correspond to
//! the flow of data between dependent stages" (paper §1). Here a node is
//! a *stage* (a gang of functions, or a VM task); data flows through
//! object-store prefixes.

use std::fmt;

use faaspipe_exchange::ExchangeKind;
use faaspipe_vm::VmProfile;

/// Index of a stage within its DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageId(pub(crate) usize);

/// The most functions (or VM-sort runs) one stage may ask for. Every
/// fleet the repository runs fits (the widest host-benchmark row is
/// W = 16,384); a larger count is rejected when the stage is added
/// instead of failing inside the run on a per-worker allocation.
pub const MAX_STAGE_WORKERS: usize = 65_536;

/// How many functions a shuffle stage should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerChoice {
    /// Exactly this many workers.
    Fixed(usize),
    /// Let the planner pick ("on the fly"): its cost model walks the
    /// worker-count ladder with the stage's backend and I/O window
    /// pinned (or open too, under `exchange: auto`).
    Auto,
}

/// Which codec the encode stage runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeCodec {
    /// METHCOMP columnar compression (the pipeline's purpose).
    Methcomp,
    /// The gzip-class baseline (for the compression-ratio comparison).
    Gzipish,
}

/// What a stage does.
#[derive(Debug, Clone)]
pub enum StageKind {
    /// All-to-all sort through object storage with serverless functions
    /// (Figure 1 B's shuffle stage).
    ShuffleSort {
        /// Worker-count policy.
        workers: WorkerChoice,
        /// Intermediate data-exchange backend: an object-store layout
        /// (scatter vs Primula's coalesced), a VM relay, or direct
        /// function-to-function streaming.
        exchange: ExchangeKind,
        /// Per-function I/O window for store reads and exchange
        /// transfers (`None` = the executor's default). `Some(1)` keeps
        /// one request in flight per function.
        io_concurrency: Option<usize>,
        /// Input prefix of binary record chunks.
        input: String,
        /// Output prefix for sorted runs.
        output: String,
    },
    /// Sort inside a provisioned VM (Figure 1 A's shuffle stage).
    VmSort {
        /// Instance type to provision.
        profile: VmProfile,
        /// Number of sorted runs to emit (downstream parallelism).
        runs: usize,
        /// Input prefix of binary record chunks.
        input: String,
        /// Output prefix for sorted runs.
        output: String,
    },
    /// Embarrassingly parallel encode of sorted runs (Figure 1's second
    /// stage in both incarnations).
    Encode {
        /// Codec to apply.
        codec: EncodeCodec,
        /// Number of encoder functions.
        workers: usize,
        /// Input prefix of sorted runs.
        input: String,
        /// Output prefix for archives.
        output: String,
    },
    /// Embarrassingly parallel decode of METHCOMP archives back into
    /// binary record runs (the consumer side of the pipeline).
    Decode {
        /// Number of decoder functions.
        workers: usize,
        /// Input prefix of archives.
        input: String,
        /// Output prefix for decoded record runs.
        output: String,
    },
}

/// One node of the workflow.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Unique stage name (tags billing and tracking).
    pub name: String,
    /// What the stage does.
    pub kind: StageKind,
    /// Stages that must finish first.
    pub deps: Vec<StageId>,
}

/// Errors constructing a DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// A stage name was used twice.
    DuplicateName {
        /// The repeated name.
        name: String,
    },
    /// A dependency references an unknown stage.
    UnknownDep {
        /// The referencing stage.
        stage: String,
        /// The missing dependency name.
        dep: String,
    },
    /// A stage parameter is invalid (zero workers, empty prefix, ...).
    BadStage {
        /// The offending stage.
        stage: String,
        /// Why it is invalid.
        reason: String,
    },
    /// The DAG has no stages.
    Empty,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::DuplicateName { name } => write!(f, "duplicate stage name '{}'", name),
            DagError::UnknownDep { stage, dep } => {
                write!(f, "stage '{}' depends on unknown stage '{}'", stage, dep)
            }
            DagError::BadStage { stage, reason } => {
                write!(f, "invalid stage '{}': {}", stage, reason)
            }
            DagError::Empty => write!(f, "workflow has no stages"),
        }
    }
}

impl std::error::Error for DagError {}

/// A validated workflow. Stages are stored in insertion order, which is
/// also a valid topological order (dependencies must already exist when a
/// stage is added — cycles are unrepresentable).
#[derive(Debug, Clone)]
pub struct Dag {
    /// Workflow name.
    pub name: String,
    /// Bucket all stages read and write.
    pub bucket: String,
    stages: Vec<Stage>,
}

impl Dag {
    /// Creates an empty workflow.
    pub fn new(name: impl Into<String>, bucket: impl Into<String>) -> Dag {
        Dag {
            name: name.into(),
            bucket: bucket.into(),
            stages: Vec::new(),
        }
    }

    /// Adds a stage depending on previously added stages (by name).
    ///
    /// # Errors
    /// [`DagError`] on duplicate names, unknown dependencies, or invalid
    /// stage parameters.
    pub fn add_stage(
        &mut self,
        name: impl Into<String>,
        kind: StageKind,
        deps: &[&str],
    ) -> Result<StageId, DagError> {
        let name = name.into();
        if self.stages.iter().any(|s| s.name == name) {
            return Err(DagError::DuplicateName { name });
        }
        validate_kind(&name, &kind)?;
        let mut dep_ids = Vec::with_capacity(deps.len());
        for dep in deps {
            let id = self
                .stages
                .iter()
                .position(|s| s.name == *dep)
                .ok_or_else(|| DagError::UnknownDep {
                    stage: name.clone(),
                    dep: (*dep).to_string(),
                })?;
            dep_ids.push(StageId(id));
        }
        self.stages.push(Stage {
            name,
            kind,
            deps: dep_ids,
        });
        Ok(StageId(self.stages.len() - 1))
    }

    /// The stages in topological (insertion) order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the workflow has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Final validation before execution.
    ///
    /// # Errors
    /// [`DagError::Empty`] for stage-less workflows.
    pub fn validate(&self) -> Result<(), DagError> {
        if self.stages.is_empty() {
            return Err(DagError::Empty);
        }
        Ok(())
    }
}

fn validate_kind(name: &str, kind: &StageKind) -> Result<(), DagError> {
    let bad = |reason: &str| DagError::BadStage {
        stage: name.to_string(),
        reason: reason.to_string(),
    };
    let too_many = |field: &str, n: usize| {
        bad(&format!(
            "{} {} exceeds the ceiling of {}",
            field, n, MAX_STAGE_WORKERS
        ))
    };
    match kind {
        StageKind::ShuffleSort {
            workers,
            io_concurrency,
            input,
            output,
            ..
        } => {
            match *workers {
                WorkerChoice::Fixed(0) => return Err(bad("zero workers")),
                WorkerChoice::Fixed(n) if n > MAX_STAGE_WORKERS => {
                    return Err(too_many("workers", n))
                }
                _ => {}
            }
            if *io_concurrency == Some(0) {
                return Err(bad("zero io_concurrency"));
            }
            if input.is_empty() || output.is_empty() {
                return Err(bad("empty prefix"));
            }
            if input == output {
                return Err(bad("input and output prefixes must differ"));
            }
        }
        StageKind::VmSort {
            runs,
            input,
            output,
            ..
        } => {
            if *runs == 0 {
                return Err(bad("zero runs"));
            }
            if *runs > MAX_STAGE_WORKERS {
                return Err(too_many("runs", *runs));
            }
            if input.is_empty() || output.is_empty() {
                return Err(bad("empty prefix"));
            }
            if input == output {
                return Err(bad("input and output prefixes must differ"));
            }
        }
        StageKind::Encode {
            workers,
            input,
            output,
            ..
        }
        | StageKind::Decode {
            workers,
            input,
            output,
        } => {
            if *workers == 0 {
                return Err(bad("zero workers"));
            }
            if *workers > MAX_STAGE_WORKERS {
                return Err(too_many("workers", *workers));
            }
            if input.is_empty() || output.is_empty() {
                return Err(bad("empty prefix"));
            }
            if input == output {
                return Err(bad("input and output prefixes must differ"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sort_kind() -> StageKind {
        StageKind::ShuffleSort {
            workers: WorkerChoice::Fixed(8),
            exchange: ExchangeKind::Scatter,
            io_concurrency: None,
            input: "in/".into(),
            output: "sorted/".into(),
        }
    }

    fn encode_kind() -> StageKind {
        StageKind::Encode {
            codec: EncodeCodec::Methcomp,
            workers: 8,
            input: "sorted/".into(),
            output: "enc/".into(),
        }
    }

    #[test]
    fn linear_pipeline_builds() {
        let mut dag = Dag::new("methcomp", "data");
        dag.add_stage("sort", sort_kind(), &[]).expect("sort");
        dag.add_stage("encode", encode_kind(), &["sort"])
            .expect("encode");
        assert_eq!(dag.len(), 2);
        assert_eq!(dag.stages()[1].deps, vec![StageId(0)]);
        dag.validate().expect("valid");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut dag = Dag::new("w", "b");
        dag.add_stage("s", sort_kind(), &[]).expect("first");
        let err = dag.add_stage("s", encode_kind(), &[]).expect_err("dup");
        assert!(matches!(err, DagError::DuplicateName { .. }));
    }

    #[test]
    fn unknown_dep_rejected() {
        let mut dag = Dag::new("w", "b");
        let err = dag
            .add_stage("encode", encode_kind(), &["sort"])
            .expect_err("missing dep");
        assert!(matches!(err, DagError::UnknownDep { .. }));
    }

    #[test]
    fn forward_deps_are_unrepresentable() {
        // Cycles cannot be constructed: deps must name already-added
        // stages, so insertion order is always topological.
        let mut dag = Dag::new("w", "b");
        dag.add_stage("a", sort_kind(), &[]).expect("a");
        let id = dag.add_stage("b", encode_kind(), &["a"]).expect("b");
        assert_eq!(id, StageId(1));
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut dag = Dag::new("w", "b");
        let err = dag
            .add_stage(
                "s",
                StageKind::ShuffleSort {
                    workers: WorkerChoice::Fixed(0),
                    exchange: ExchangeKind::Scatter,
                    io_concurrency: None,
                    input: "in/".into(),
                    output: "out/".into(),
                },
                &[],
            )
            .expect_err("zero workers");
        assert!(matches!(err, DagError::BadStage { .. }));
        let err = dag
            .add_stage(
                "s",
                StageKind::Encode {
                    codec: EncodeCodec::Methcomp,
                    workers: 4,
                    input: "x/".into(),
                    output: "x/".into(),
                },
                &[],
            )
            .expect_err("same prefix");
        assert!(matches!(err, DagError::BadStage { .. }));
    }

    #[test]
    fn oversized_counts_are_rejected_against_one_ceiling() {
        let huge = MAX_STAGE_WORKERS + 1;
        let kinds = [
            StageKind::ShuffleSort {
                workers: WorkerChoice::Fixed(huge),
                exchange: ExchangeKind::Scatter,
                io_concurrency: None,
                input: "in/".into(),
                output: "out/".into(),
            },
            StageKind::VmSort {
                profile: VmProfile::bx2_8x32(),
                runs: huge,
                input: "in/".into(),
                output: "out/".into(),
            },
            StageKind::Encode {
                codec: EncodeCodec::Methcomp,
                workers: huge,
                input: "in/".into(),
                output: "out/".into(),
            },
            StageKind::Decode {
                workers: huge,
                input: "in/".into(),
                output: "out/".into(),
            },
        ];
        for kind in kinds {
            let err = Dag::new("w", "b")
                .add_stage("s", kind, &[])
                .expect_err("count above the ceiling");
            assert!(
                err.to_string().contains("exceeds the ceiling of 65536"),
                "{}",
                err
            );
        }
        // The ceiling itself is a valid fleet.
        Dag::new("w", "b")
            .add_stage(
                "s",
                StageKind::ShuffleSort {
                    workers: WorkerChoice::Fixed(MAX_STAGE_WORKERS),
                    exchange: ExchangeKind::Scatter,
                    io_concurrency: None,
                    input: "in/".into(),
                    output: "out/".into(),
                },
                &[],
            )
            .expect("the ceiling is allowed");
    }

    #[test]
    fn empty_dag_fails_validation() {
        let dag = Dag::new("w", "b");
        assert_eq!(dag.validate(), Err(DagError::Empty));
        assert!(dag.is_empty());
    }
}

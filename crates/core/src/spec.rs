//! Declarative JSON pipeline specifications (paper §2.4).
//!
//! "We augmented Lithops with a module to create pipelines from JSON
//! configuration files." A [`PipelineSpec`] deserializes from JSON and
//! converts into a validated [`Dag`].
//!
//! ```json
//! {
//!   "name": "methcomp",
//!   "bucket": "data",
//!   "stages": [
//!     { "name": "sort", "kind": "shuffle_sort", "workers": "auto",
//!       "input": "in/", "output": "sorted/" },
//!     { "name": "encode", "kind": "encode", "codec": "methcomp",
//!       "workers": 8, "input": "sorted/", "output": "enc/",
//!       "deps": ["sort"] }
//!   ]
//! }
//! ```

use faaspipe_json::{FromJson, Json, JsonError, ToJson};
use faaspipe_vm::VmProfile;

use faaspipe_exchange::ExchangeKind;

use crate::dag::{Dag, DagError, EncodeCodec, StageKind, WorkerChoice};

/// Worker policy as written in JSON: a number or `"auto"` (an untagged
/// value — the JSON type discriminates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkersSpec {
    /// Fixed worker count.
    Fixed(usize),
    /// The string `"auto"`.
    Auto(AutoTag),
}

/// The literal `"auto"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutoTag {
    /// Planned worker count (`"auto"`).
    Auto,
}

impl ToJson for WorkersSpec {
    fn to_json(&self) -> Json {
        match self {
            WorkersSpec::Fixed(n) => Json::UInt(*n as u64),
            WorkersSpec::Auto(_) => Json::Str("auto".to_string()),
        }
    }
}

impl FromJson for WorkersSpec {
    fn from_json(v: &Json) -> Result<WorkersSpec, JsonError> {
        match v {
            Json::Str(s) if s == "auto" => Ok(WorkersSpec::Auto(AutoTag::Auto)),
            Json::UInt(_) | Json::Int(_) => usize::from_json(v).map(WorkersSpec::Fixed),
            other => Err(JsonError::new(format!(
                "expected worker count or \"auto\", found {}",
                other.kind()
            ))),
        }
    }
}

impl From<WorkersSpec> for WorkerChoice {
    fn from(w: WorkersSpec) -> WorkerChoice {
        match w {
            WorkersSpec::Fixed(n) => WorkerChoice::Fixed(n),
            WorkersSpec::Auto(_) => WorkerChoice::Auto,
        }
    }
}

/// One stage in the JSON spec.
#[derive(Debug, Clone)]
pub struct StageSpec {
    /// Unique stage name.
    pub name: String,
    /// `"shuffle_sort"`, `"vm_sort"`, `"encode"`, or `"decode"`.
    pub kind: String,
    /// Worker policy (`shuffle_sort`, `encode`).
    pub workers: Option<WorkersSpec>,
    /// Codec name for `encode`: `"methcomp"` or `"gzipish"`.
    pub codec: Option<String>,
    /// VM profile name for `vm_sort` (e.g. `"bx2-8x32"`).
    pub profile: Option<String>,
    /// Output runs for `vm_sort`.
    pub runs: Option<usize>,
    /// Exchange backend for `shuffle_sort`: `"scatter"` (default),
    /// `"coalesced"` (the Primula I/O optimization), `"vm_relay"`
    /// (Pocket-style in-memory relay VM), or `"direct"`
    /// (function-to-function streaming).
    pub exchange: Option<String>,
    /// Per-function I/O window for `shuffle_sort` (how many store
    /// reads / exchange transfers each function keeps in flight).
    /// Omitted = the executor's default; `1` = one request at a time.
    pub io_concurrency: Option<usize>,
    /// Input prefix.
    pub input: String,
    /// Output prefix.
    pub output: String,
    /// Names of stages this one depends on.
    pub deps: Vec<String>,
}

faaspipe_json::json_object! {
    StageSpec {
        req name,
        req kind,
        opt workers,
        opt codec,
        opt profile,
        opt runs,
        opt exchange,
        opt io_concurrency,
        req input,
        req output,
        opt deps,
    }
}

/// A whole pipeline spec.
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    /// Workflow name.
    pub name: String,
    /// Bucket all stages use.
    pub bucket: String,
    /// The stages, in an order where dependencies come first.
    pub stages: Vec<StageSpec>,
}

faaspipe_json::json_object! { PipelineSpec { req name, req bucket, req stages } }

/// Errors converting a spec into a DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The JSON did not parse.
    Json {
        /// Parser message.
        message: String,
    },
    /// A stage field combination is invalid.
    Invalid {
        /// The stage.
        stage: String,
        /// Why.
        reason: String,
    },
    /// DAG-level validation failed.
    Dag(DagError),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Json { message } => write!(f, "invalid pipeline JSON: {}", message),
            SpecError::Invalid { stage, reason } => {
                write!(f, "invalid stage '{}': {}", stage, reason)
            }
            SpecError::Dag(e) => write!(f, "invalid workflow: {}", e),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<DagError> for SpecError {
    fn from(e: DagError) -> Self {
        SpecError::Dag(e)
    }
}

impl PipelineSpec {
    /// Parses a spec from JSON text.
    ///
    /// # Errors
    /// [`SpecError::Json`] with the parser's message.
    pub fn from_json(text: &str) -> Result<PipelineSpec, SpecError> {
        faaspipe_json::from_str(text).map_err(|e| SpecError::Json {
            message: e.to_string(),
        })
    }

    /// Serializes the spec back to pretty JSON.
    pub fn to_json(&self) -> String {
        faaspipe_json::to_string_pretty(self)
    }

    /// Converts into a validated [`Dag`].
    ///
    /// # Errors
    /// [`SpecError`] describing the offending stage.
    pub fn to_dag(&self) -> Result<Dag, SpecError> {
        let mut dag = Dag::new(self.name.clone(), self.bucket.clone());
        for s in &self.stages {
            let invalid = |reason: &str| SpecError::Invalid {
                stage: s.name.clone(),
                reason: reason.to_string(),
            };
            let kind = match s.kind.as_str() {
                "shuffle_sort" => {
                    let exchange = match s.exchange.as_deref() {
                        None => ExchangeKind::Scatter,
                        Some(name) => name
                            .parse::<ExchangeKind>()
                            .map_err(|e| invalid(&e.to_string()))?,
                    };
                    StageKind::ShuffleSort {
                        workers: s
                            .workers
                            .map(WorkerChoice::from)
                            .unwrap_or(WorkerChoice::Auto),
                        exchange,
                        io_concurrency: s.io_concurrency,
                        input: s.input.clone(),
                        output: s.output.clone(),
                    }
                }
                "vm_sort" => {
                    let profile = match s.profile.as_deref() {
                        None | Some("bx2-8x32") => VmProfile::bx2_8x32(),
                        Some("bx2-4x16") => VmProfile::bx2_4x16(),
                        Some("bx2-16x64") => VmProfile::bx2_16x64(),
                        Some(other) => {
                            return Err(invalid(&format!("unknown VM profile '{}'", other)))
                        }
                    };
                    StageKind::VmSort {
                        profile,
                        runs: s.runs.ok_or_else(|| invalid("vm_sort requires 'runs'"))?,
                        input: s.input.clone(),
                        output: s.output.clone(),
                    }
                }
                "encode" => {
                    let codec = match s.codec.as_deref() {
                        None | Some("methcomp") => EncodeCodec::Methcomp,
                        Some("gzipish") | Some("gzip") => EncodeCodec::Gzipish,
                        Some(other) => return Err(invalid(&format!("unknown codec '{}'", other))),
                    };
                    let workers = match s.workers {
                        Some(WorkersSpec::Fixed(n)) => n,
                        Some(WorkersSpec::Auto(_)) => {
                            return Err(invalid("encode stages need a fixed worker count"))
                        }
                        None => return Err(invalid("encode requires 'workers'")),
                    };
                    StageKind::Encode {
                        codec,
                        workers,
                        input: s.input.clone(),
                        output: s.output.clone(),
                    }
                }
                "decode" => {
                    let workers = match s.workers {
                        Some(WorkersSpec::Fixed(n)) => n,
                        _ => return Err(invalid("decode requires a fixed 'workers' count")),
                    };
                    StageKind::Decode {
                        workers,
                        input: s.input.clone(),
                        output: s.output.clone(),
                    }
                }
                other => return Err(invalid(&format!("unknown stage kind '{}'", other))),
            };
            let deps: Vec<&str> = s.deps.iter().map(String::as_str).collect();
            dag.add_stage(s.name.clone(), kind, &deps)?;
        }
        dag.validate()?;
        Ok(dag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
        "name": "methcomp",
        "bucket": "data",
        "stages": [
            { "name": "sort", "kind": "shuffle_sort", "workers": "auto",
              "input": "in/", "output": "sorted/" },
            { "name": "encode", "kind": "encode", "codec": "methcomp",
              "workers": 8, "input": "sorted/", "output": "enc/",
              "deps": ["sort"] }
        ]
    }"#;

    #[test]
    fn parses_and_converts() {
        let spec = PipelineSpec::from_json(GOOD).expect("parse");
        let dag = spec.to_dag().expect("convert");
        assert_eq!(dag.len(), 2);
        assert!(matches!(
            dag.stages()[0].kind,
            StageKind::ShuffleSort {
                workers: WorkerChoice::Auto,
                ..
            }
        ));
        assert!(matches!(
            dag.stages()[1].kind,
            StageKind::Encode {
                codec: EncodeCodec::Methcomp,
                workers: 8,
                ..
            }
        ));
    }

    #[test]
    fn fixed_workers_parse_as_numbers() {
        let json = GOOD.replace("\"auto\"", "12");
        let dag = PipelineSpec::from_json(&json)
            .expect("parse")
            .to_dag()
            .expect("convert");
        assert!(matches!(
            dag.stages()[0].kind,
            StageKind::ShuffleSort {
                workers: WorkerChoice::Fixed(12),
                ..
            }
        ));
    }

    #[test]
    fn io_concurrency_field_parses_and_roundtrips() {
        let json = GOOD.replace(
            "\"kind\": \"shuffle_sort\",",
            "\"kind\": \"shuffle_sort\", \"io_concurrency\": 8,",
        );
        let spec = PipelineSpec::from_json(&json).expect("parse");
        assert_eq!(spec.stages[0].io_concurrency, Some(8));
        let dag = spec.to_dag().expect("dag");
        assert!(matches!(
            dag.stages()[0].kind,
            StageKind::ShuffleSort {
                io_concurrency: Some(8),
                ..
            }
        ));
        // Omitted in the original spec: defers to the executor default.
        let spec = PipelineSpec::from_json(GOOD).expect("parse");
        assert_eq!(spec.stages[0].io_concurrency, None);
        let reparsed = PipelineSpec::from_json(&spec.to_json()).expect("roundtrip");
        assert_eq!(reparsed.stages[0].io_concurrency, None);
    }

    #[test]
    fn vm_sort_spec() {
        let json = r#"{
            "name": "hybrid", "bucket": "data",
            "stages": [
                { "name": "sort", "kind": "vm_sort", "profile": "bx2-8x32",
                  "runs": 8, "input": "in/", "output": "sorted/" }
            ]
        }"#;
        let dag = PipelineSpec::from_json(json)
            .expect("parse")
            .to_dag()
            .expect("convert");
        assert!(matches!(
            &dag.stages()[0].kind,
            StageKind::VmSort { runs: 8, profile, .. } if profile.name == "bx2-8x32"
        ));
    }

    #[test]
    fn bad_json_reports_parser_message() {
        let err = PipelineSpec::from_json("{not json").expect_err("bad json");
        assert!(matches!(err, SpecError::Json { .. }));
    }

    #[test]
    fn unknown_kind_rejected() {
        let json = GOOD.replace("shuffle_sort", "mystery");
        let err = PipelineSpec::from_json(&json)
            .expect("parses")
            .to_dag()
            .expect_err("unknown kind");
        assert!(matches!(err, SpecError::Invalid { .. }));
    }

    #[test]
    fn unknown_codec_rejected() {
        let json = GOOD.replace("methcomp\",", "zpaq\",");
        let err = PipelineSpec::from_json(&json)
            .expect("parses")
            .to_dag()
            .expect_err("unknown codec");
        assert!(matches!(err, SpecError::Invalid { .. }));
    }

    #[test]
    fn missing_dep_flows_through_dag_error() {
        let json = GOOD.replace("[\"sort\"]", "[\"nope\"]");
        let err = PipelineSpec::from_json(&json)
            .expect("parses")
            .to_dag()
            .expect_err("unknown dep");
        assert!(matches!(err, SpecError::Dag(DagError::UnknownDep { .. })));
    }

    #[test]
    fn round_trips_through_json() {
        let spec = PipelineSpec::from_json(GOOD).expect("parse");
        let json = spec.to_json();
        let spec2 = PipelineSpec::from_json(&json).expect("reparse");
        assert_eq!(spec2.stages.len(), spec.stages.len());
        assert_eq!(spec2.name, spec.name);
        spec2.to_dag().expect("still valid");
    }

    #[test]
    fn exchange_field_parses() {
        let json = GOOD.replace(
            "\"kind\": \"shuffle_sort\",",
            "\"kind\": \"shuffle_sort\", \"exchange\": \"coalesced\",",
        );
        let dag = PipelineSpec::from_json(&json)
            .expect("parse")
            .to_dag()
            .expect("dag");
        assert!(matches!(
            dag.stages()[0].kind,
            StageKind::ShuffleSort {
                exchange: ExchangeKind::Coalesced,
                ..
            }
        ));
        for (name, kind) in [
            ("vm_relay", ExchangeKind::VmRelay),
            ("direct", ExchangeKind::Direct),
            (
                "sharded_relay:8:prewarm",
                ExchangeKind::ShardedRelay {
                    shards: 8,
                    prewarm: true,
                },
            ),
            (
                "sharded_relay",
                ExchangeKind::ShardedRelay {
                    shards: 4,
                    prewarm: false,
                },
            ),
        ] {
            let json = GOOD.replace(
                "\"kind\": \"shuffle_sort\",",
                &format!("\"kind\": \"shuffle_sort\", \"exchange\": \"{}\",", name),
            );
            let dag = PipelineSpec::from_json(&json)
                .expect("parse")
                .to_dag()
                .expect("dag");
            assert!(
                matches!(&dag.stages()[0].kind, StageKind::ShuffleSort { exchange, .. } if *exchange == kind)
            );
        }
        let bad = GOOD.replace(
            "\"kind\": \"shuffle_sort\",",
            "\"kind\": \"shuffle_sort\", \"exchange\": \"quantum\",",
        );
        assert!(PipelineSpec::from_json(&bad)
            .expect("parse")
            .to_dag()
            .is_err());
    }

    #[test]
    fn vm_sort_requires_runs() {
        let json = r#"{
            "name": "hybrid", "bucket": "data",
            "stages": [
                { "name": "sort", "kind": "vm_sort",
                  "input": "in/", "output": "sorted/" }
            ]
        }"#;
        let err = PipelineSpec::from_json(json)
            .expect("parses")
            .to_dag()
            .expect_err("runs required");
        assert!(matches!(err, SpecError::Invalid { .. }));
    }
}

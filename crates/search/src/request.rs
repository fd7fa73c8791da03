//! Search requests and configuration.
//!
//! Two request forms exist, matching the two-tier trust model:
//!
//! - [`SearchRequest`] is the **client-side** form: it carries the raw
//!   train/test [`Relation`]s and never crosses the service boundary.
//! - [`SketchedRequest`] is the **wire-side** form: the relations have been
//!   sketched (and, with a budget, privatized) locally, so the platform only
//!   ever sees semi-ring sketches plus a discovery profile — the paper's
//!   Figure 1 guarantee that requester raw data never leaves the local store.

use crate::candidates::CandidateLimits;
use crate::error::{Result, SearchError};
use mileena_discovery::DatasetProfile;
use mileena_privacy::{FactorizedMechanism, FpmConfig, PrivacyBudget};
use mileena_relation::Relation;
use mileena_sketch::{build_sketch, DatasetSketch, SketchConfig};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The ML task `(M, R_train, R_test)` of §2.1, restricted to regression:
/// predict `target` from `features` (plus whatever augmentation adds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Target column name in the requester relations.
    pub target: String,
    /// Base feature columns in the requester relations.
    pub features: Vec<String>,
}

impl TaskSpec {
    /// Construct a task.
    pub fn new(target: impl Into<String>, features: &[&str]) -> Self {
        TaskSpec {
            target: target.into(),
            features: features.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// All columns the task touches (features + target).
    pub fn all_columns(&self) -> Vec<&str> {
        let mut cols: Vec<&str> = self.features.iter().map(|s| s.as_str()).collect();
        cols.push(self.target.as_str());
        cols
    }
}

/// A requester's search request `(R_train, R_test, M, ε, δ)` in its raw,
/// **client-side** form. This type must never cross the service boundary:
/// sketch it into a [`SketchedRequest`] first (the `mileena-core` builder
/// and `LocalDataStore` do this for you).
#[derive(Debug, Clone)]
pub struct SearchRequest {
    /// Training relation (stays in the requester's local store; only its
    /// sketches reach the platform).
    pub train: Relation,
    /// Test relation.
    pub test: Relation,
    /// The task.
    pub task: TaskSpec,
    /// The requester's own DP budget for its train/test sketches
    /// (`None` = requester opts out of privacy for its own data).
    pub budget: Option<PrivacyBudget>,
    /// Join-key columns the requester is willing to join on (`None` = every
    /// keyable column). Narrowing this matters under FPM: each sketched key
    /// consumes a share of the requester's privacy budget.
    pub key_columns: Option<Vec<String>>,
}

/// The wire-side search request: everything the platform needs to serve a
/// search, with **no raw relation anywhere in the type**. Built locally by
/// sketching a [`SearchRequest`]'s relations ([`SketchedRequest::sketch`] /
/// [`SketchedRequest::sketch_private`]); what crosses the boundary is
/// sufficient statistics (covariance triples, keyed sketches) plus the
/// discovery profile (MinHash/TF-IDF — key domains are public under the
/// FPM assumptions documented in `mileena-privacy`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SketchedRequest {
    /// Requester train sketch (privatized when `budget` is set).
    pub train_sketch: DatasetSketch,
    /// Requester test sketch (privatized when `budget` is set).
    pub test_sketch: DatasetSketch,
    /// Discovery profile of the training relation (drives candidate
    /// enumeration server-side).
    pub profile: DatasetProfile,
    /// The task.
    pub task: TaskSpec,
    /// Join-key columns the requester is willing to join on.
    pub key_columns: Option<Vec<String>>,
    /// The (ε, δ) already consumed client-side privatizing the sketches
    /// above (`None` = non-private request). Informational for the
    /// platform: the release happened before upload, so searches are free
    /// post-processing regardless.
    pub budget: Option<PrivacyBudget>,
    /// Requester identity for the platform's fair admission queue: sessions
    /// are dequeued round-robin over requester keys, so one hot client
    /// cannot starve the rest. `None` lands in a shared anonymous bucket.
    /// A self-declared label, not an authenticated principal — a deployment
    /// with real authentication should overwrite it at the trust boundary.
    pub requester: Option<String>,
}

impl SketchedRequest {
    /// The requester-side sketch configuration for a task: exactly the task
    /// columns as features, plus the chosen join keys.
    fn sketch_config(task: &TaskSpec, key_columns: Option<&[String]>) -> SketchConfig {
        let cols: Vec<String> = task.all_columns().iter().map(|s| s.to_string()).collect();
        SketchConfig {
            feature_columns: Some(cols),
            key_columns: key_columns.map(|k| k.to_vec()),
            ..SketchConfig::requester()
        }
    }

    /// The boundary-safe discovery profile of the requester's training
    /// relation: task + keyable columns only, string term vectors redacted
    /// (see [`DatasetProfile::of_requester`]).
    fn requester_profile(train: &Relation, task: &TaskSpec) -> DatasetProfile {
        DatasetProfile::of_requester(train, &task.all_columns(), 128)
    }

    /// Sketch a raw request locally, without privatization. This is the
    /// only place raw relations are touched; the returned value is safe to
    /// put on the wire.
    pub fn sketch(
        train: &Relation,
        test: &Relation,
        task: &TaskSpec,
        key_columns: Option<&[String]>,
    ) -> Result<Self> {
        if train.num_rows() == 0 {
            return Err(SearchError::InvalidTask("empty training relation".into()));
        }
        let cfg = Self::sketch_config(task, key_columns);
        Ok(SketchedRequest {
            train_sketch: build_sketch(train, &cfg)?,
            test_sketch: build_sketch(test, &cfg)?,
            profile: Self::requester_profile(train, task),
            task: task.clone(),
            key_columns: key_columns.map(|k| k.to_vec()),
            budget: None,
            requester: None,
        })
    }

    /// Sketch and FPM-privatize a raw request locally: the requester's
    /// entire `budget` is consumed here, once — repeat requests should
    /// reuse the same release (derive `seed` from the dataset identity).
    pub fn sketch_private(
        train: &Relation,
        test: &Relation,
        task: &TaskSpec,
        key_columns: Option<&[String]>,
        budget: PrivacyBudget,
        bound: f64,
        seed: u64,
    ) -> Result<Self> {
        if train.num_rows() == 0 {
            return Err(SearchError::InvalidTask("empty training relation".into()));
        }
        let cfg = Self::sketch_config(task, key_columns);
        let fpm = FactorizedMechanism::new(FpmConfig { bound, ..Default::default() });
        let train_raw = build_sketch(train, &cfg)?;
        let test_raw = build_sketch(test, &cfg)?;
        let train_p = fpm.privatize(&train_raw, budget, seed)?;
        let test_p = fpm.privatize(&test_raw, budget, seed ^ 1)?;
        Ok(SketchedRequest {
            train_sketch: train_p.sketch,
            test_sketch: test_p.sketch,
            profile: Self::requester_profile(train, task),
            task: task.clone(),
            key_columns: key_columns.map(|k| k.to_vec()),
            budget: Some(budget),
            requester: None,
        })
    }

    /// Tag the request with a requester key for fair queueing (builder
    /// style, so existing sketch-then-send call sites stay one expression).
    pub fn with_requester(mut self, requester: impl Into<String>) -> Self {
        self.requester = Some(requester.into());
        self
    }
}

/// Search tuning knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Maximum augmentations to select (greedy rounds).
    pub max_augmentations: usize,
    /// Stop when the best candidate improves train-proxy R² by less than
    /// this (absolute).
    pub min_gain: f64,
    /// Ridge λ for the proxy model.
    pub lambda: f64,
    /// Wall-clock budget for the search loop.
    #[serde(with = "duration_millis")]
    pub time_budget: Duration,
    /// Joins require at least this fraction of training rows to survive
    /// (low-overlap joins wreck the training set).
    pub min_join_survival: f64,
    /// Joins may multiply training rows by at most this factor. Vertical
    /// augmentation adds *features*, so it should be (near) N:1; a
    /// many-to-many join that fans rows out re-weights the training set
    /// with no semantic justification.
    pub max_join_fanout: f64,
    /// Bound-pruned lazy rounds: evaluate candidates in descending order of
    /// their admissible score bound and stop a round once no remaining
    /// bound can beat the incumbent (or clear `min_gain`). Selections and
    /// scores are bit-identical to exhaustive evaluation — bounds are
    /// admissible — so this is purely an evaluation-plan choice; `false`
    /// forces the exhaustive reference plan.
    pub pruning: bool,
    /// Caps on enumerated candidates per class (top-ranked kept, the rest
    /// counted as truncated and reported through `SearchOutcome`/events).
    /// Defaults are generous; they bound degenerate corpora, not recall.
    pub limits: CandidateLimits,
    /// Opt-in degraded search: when shards are down (or get struck out
    /// mid-search), proceed over the live shard subset instead of failing
    /// with `ShardUnavailable`. Off by default — a partial scatter silently
    /// changes which augmentations win, so clients must ask for it, and
    /// every partial reply is labeled `degraded: true` with the exact
    /// missing-shard list. `#[serde(default)]` keeps requests from
    /// pre-degraded clients parseable.
    #[serde(default)]
    pub degraded_ok: bool,
    /// Per-shard time budget per gather round, in milliseconds (0 = no
    /// deadline). A shard whose round scoring blows this budget is recorded
    /// as a timeout strike — fed to the coordinator's circuit breaker — so
    /// one slow shard degrades instead of stalling every session.
    #[serde(default)]
    pub shard_deadline_ms: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_augmentations: 10,
            min_gain: 0.01,
            lambda: 1e-4,
            time_budget: Duration::from_secs(10),
            min_join_survival: 0.5,
            max_join_fanout: 1.5,
            pruning: true,
            limits: CandidateLimits::default(),
            degraded_ok: false,
            shard_deadline_ms: 0,
        }
    }
}

/// Serde helper: store durations as integer milliseconds.
mod duration_millis {
    use serde::{Deserialize, Deserializer, Serializer};
    use std::time::Duration;

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_u64(d.as_millis() as u64)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        Ok(Duration::from_millis(u64::deserialize(d)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_columns() {
        let t = TaskSpec::new("y", &["a", "b"]);
        assert_eq!(t.all_columns(), vec!["a", "b", "y"]);
    }

    #[test]
    fn sketched_request_roundtrip_and_no_relations() {
        use mileena_relation::RelationBuilder;
        let train = RelationBuilder::new("train")
            .int_col("zone", &[1, 2, 3, 4])
            .float_col("base_x", &[0.1, 0.2, 0.3, 0.4])
            .float_col("y", &[1.0, 2.0, 3.0, 4.0])
            .build()
            .unwrap();
        let test = train.clone().with_name("test");
        let task = TaskSpec::new("y", &["base_x"]);
        let keys = vec!["zone".to_string()];
        let sk = SketchedRequest::sketch(&train, &test, &task, Some(&keys)).unwrap();
        assert_eq!(sk.train_sketch.features, vec!["base_x", "y"]);
        assert!(sk.budget.is_none());
        let json = serde_json::to_string(&sk).unwrap();
        let back: SketchedRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(sk, back, "wire round-trip must be lossless");
    }

    #[test]
    fn empty_train_rejected_at_sketch_time() {
        use mileena_relation::RelationBuilder;
        let empty =
            RelationBuilder::new("train").int_col("zone", &[]).float_col("y", &[]).build().unwrap();
        let task = TaskSpec::new("y", &[]);
        assert!(SketchedRequest::sketch(&empty, &empty, &task, None).is_err());
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = SearchConfig {
            time_budget: Duration::from_millis(1234),
            degraded_ok: true,
            shard_deadline_ms: 250,
            ..Default::default()
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SearchConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.time_budget, Duration::from_millis(1234));
        assert_eq!(back.max_augmentations, cfg.max_augmentations);
        assert!(back.degraded_ok);
        assert_eq!(back.shard_deadline_ms, 250);
    }

    #[test]
    fn config_from_pre_degraded_client_still_parses() {
        // A config serialized before the fault-tolerance fields existed:
        // `degraded_ok` / `shard_deadline_ms` absent. `#[serde(default)]`
        // must fall back to the fail-fast defaults rather than erroring.
        // Older clients also still send the removed `parallel` flag, which
        // is ignored.
        let json = serde_json::to_string(&SearchConfig::default()).unwrap();
        let stripped =
            json.replace(",\"degraded_ok\":false", "").replace(",\"shard_deadline_ms\":0", "");
        assert!(
            !stripped.contains("degraded_ok") && !stripped.contains("shard_deadline_ms"),
            "test must actually strip the new fields: {stripped}"
        );
        let old = stripped.replacen('{', "{\"parallel\":true,", 1);
        assert!(old.contains("\"parallel\":true"));
        let back: SearchConfig = serde_json::from_str(&old).unwrap();
        assert!(!back.degraded_ok);
        assert_eq!(back.shard_deadline_ms, 0);
    }
}

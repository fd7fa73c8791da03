//! The versioned JSON wire protocol of the platform service boundary.
//!
//! Every message is an envelope carrying an explicit protocol version
//! (`{"v":1,...}`); servers reject versions they don't speak with a typed
//! error response instead of guessing. Two request envelopes exist —
//! [`WireRegisterRequest`] (provider upload) and [`WireSearchRequest`]
//! (requester search) — and each has a matching response envelope whose
//! body is either an `ok` payload or a typed [`WireError`]. Search progress
//! streams as [`WireEvent`] envelopes, one per [`SearchEvent`].
//!
//! Nothing in this module can represent a raw relation: the search request
//! body is a [`SketchedRequest`] (sufficient statistics only), which is the
//! compile-time form of the paper's "raw data never leaves the local
//! store" boundary.
//!
//! Schema-evolution policy: both endpoints of this protocol ship from one
//! tree, so a release may add required fields to v1 payload bodies (e.g.
//! `SearchReply::bound_skips`) without bumping `WIRE_VERSION` — mixed-build
//! deployments are not supported. Purely *additive* fields whose zero value
//! means "the old behavior" should additionally be marked
//! `#[serde(default)]` (the in-tree serde shim substitutes
//! `Default::default()` when the field is absent), so a reply recorded or
//! produced by a pre-field build still parses — `SearchReply::degraded` /
//! `shards_missing` and `ShardReport::health` follow this rule. The version
//! field guards *protocol* breaks (envelope shape, semantics), not
//! same-tree body growth; revisit if clients ever ship separately.

use crate::durable::RecoveryReport;
use crate::error::{CoreError, Result};
use crate::local::ProviderUpload;
use mileena_ml::LinearModel;
use mileena_obs::{HistogramSummary, MetricsReport};
use mileena_search::{
    Augmentation, SearchConfig, SearchEvent, SearchOutcome, SketchedRequest, StopReason,
};
use serde::{Deserialize, Serialize};

/// The wire protocol version this build speaks.
pub const WIRE_VERSION: u32 = 1;

/// Machine-readable error classes carried by error envelopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The envelope's `v` is not a version this server speaks.
    UnsupportedVersion,
    /// The payload failed to parse or validate.
    Malformed,
    /// A dataset with that name is already registered.
    DuplicateDataset,
    /// Privacy budget accounting rejected the operation.
    BudgetExhausted,
    /// The request parsed but cannot be served (bad task, no columns...).
    InvalidRequest,
    /// The platform is at its concurrent-session capacity.
    Capacity,
    /// The admission queue is full; back off and retry (the error carries
    /// `retry_after_ms`).
    Overloaded,
    /// The platform is shutting down; the queued session will never run.
    Shutdown,
    /// A shard worker is unavailable; the error carries the shard index.
    ShardUnavailable,
    /// Anything else; details in the message.
    Internal,
}

/// A typed wire-level error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// Error class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// For [`ErrorCode::Overloaded`]: the server's estimate of when a retry
    /// is likely to be admitted, in milliseconds. `None` for other codes.
    pub retry_after_ms: Option<u64>,
    /// For [`ErrorCode::Overloaded`]: the admission-queue bound that was
    /// hit. `None` for other codes.
    pub queue_depth: Option<usize>,
    /// For [`ErrorCode::ShardUnavailable`]: which shard is down. `None`
    /// for other codes.
    pub shard: Option<usize>,
}

impl WireError {
    /// A plain coded error (no backpressure payload).
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
            retry_after_ms: None,
            queue_depth: None,
            shard: None,
        }
    }

    /// Encode a platform error, preserving the structured backpressure
    /// payload of [`CoreError::Overloaded`] so the client-side retry helper
    /// can honor the server's hint.
    pub fn from_core(err: &CoreError) -> Self {
        let mut wire = WireError::new(code_of(err), err.to_string());
        if let CoreError::Overloaded { queue_depth, retry_after_ms } = err {
            wire.retry_after_ms = Some(*retry_after_ms);
            wire.queue_depth = Some(*queue_depth);
        }
        if let CoreError::ShardUnavailable { shard } = err {
            wire.shard = Some(*shard);
        }
        wire
    }

    /// Decode back into the richest [`CoreError`] the payload supports:
    /// structured variants where the fields survived the trip, the generic
    /// `Wire` pass-through otherwise.
    pub(crate) fn into_core(self) -> CoreError {
        match (self.code, self.retry_after_ms, self.queue_depth) {
            (ErrorCode::Overloaded, Some(retry_after_ms), Some(queue_depth)) => {
                CoreError::Overloaded { queue_depth, retry_after_ms }
            }
            (ErrorCode::Shutdown, ..) => CoreError::Shutdown,
            (ErrorCode::ShardUnavailable, ..) if self.shard.is_some() => {
                CoreError::ShardUnavailable { shard: self.shard.unwrap() }
            }
            _ => CoreError::Wire { code: self.code, message: self.message },
        }
    }
}

/// Classify a platform error for the wire. Codes are a coarse, stable
/// vocabulary; the message keeps the detail. Capacity and the pass-through
/// are structural; duplicate detection matches the one stringified
/// `SketchError::DuplicateDataset` message (pinned by a test below so a
/// rewording cannot silently degrade the code).
pub fn code_of(err: &CoreError) -> ErrorCode {
    match err {
        CoreError::Privacy(_) => ErrorCode::BudgetExhausted,
        CoreError::Sketch(m) if m.contains("already registered") => ErrorCode::DuplicateDataset,
        CoreError::Search(_) | CoreError::Sketch(_) | CoreError::Relation(_) => {
            ErrorCode::InvalidRequest
        }
        CoreError::Capacity(_) => ErrorCode::Capacity,
        CoreError::Overloaded { .. } => ErrorCode::Overloaded,
        CoreError::Shutdown => ErrorCode::Shutdown,
        CoreError::ShardUnavailable { .. } => ErrorCode::ShardUnavailable,
        CoreError::Wire { code, .. } => *code,
        CoreError::Storage(_) => ErrorCode::Internal,
        _ => ErrorCode::Internal,
    }
}

// ---------------------------------------------------------------------------
// Requests

/// Provider upload envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireRegisterRequest {
    /// Protocol version.
    pub v: u32,
    /// The upload bundle (sketches + profile + consumed budget).
    pub upload: ProviderUpload,
}

/// Requester search envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSearchRequest {
    /// Protocol version.
    pub v: u32,
    /// The sketches-only request.
    pub request: SketchedRequest,
    /// Optional search tuning; `None` = the platform's configured default.
    pub config: Option<SearchConfig>,
    /// Caller-chosen correlation id, echoed verbatim in the final
    /// [`SearchReply`] and in the server's slow-search log, so a client can
    /// line up its own records with the server's. `None` = uncorrelated.
    pub request_id: Option<u64>,
}

// ---------------------------------------------------------------------------
// Responses

/// What a successful registration reports back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegisterReceipt {
    /// Name of the dataset that was registered.
    pub dataset: String,
    /// Corpus size after the registration.
    pub datasets_total: usize,
}

/// Registration response envelope: exactly one of `ok` / `err` is set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireRegisterResponse {
    /// Protocol version.
    pub v: u32,
    /// Success payload.
    pub ok: Option<RegisterReceipt>,
    /// Typed failure.
    pub err: Option<WireError>,
}

impl WireRegisterResponse {
    /// Success envelope.
    pub fn ok(receipt: RegisterReceipt) -> Self {
        WireRegisterResponse { v: WIRE_VERSION, ok: Some(receipt), err: None }
    }

    /// Error envelope.
    pub fn err(code: ErrorCode, message: impl Into<String>) -> Self {
        WireRegisterResponse { v: WIRE_VERSION, ok: None, err: Some(WireError::new(code, message)) }
    }

    /// Error envelope from a platform error (preserves structured fields).
    pub fn err_core(e: &CoreError) -> Self {
        WireRegisterResponse { v: WIRE_VERSION, ok: None, err: Some(WireError::from_core(e)) }
    }

    /// Collapse into a client-side result.
    pub fn into_result(self) -> Result<RegisterReceipt> {
        match (self.ok, self.err) {
            (Some(receipt), None) => Ok(receipt),
            (_, Some(e)) => Err(e.into_core()),
            (None, None) => Err(CoreError::Wire {
                code: ErrorCode::Malformed,
                message: "response carries neither ok nor err".into(),
            }),
        }
    }
}

/// One committed step, wire form (durations in milliseconds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplyStep {
    /// The augmentation taken.
    pub augmentation: Augmentation,
    /// Proxy test-R² after committing it.
    pub score_after: f64,
    /// Wall-clock since search start when committed, in milliseconds.
    pub elapsed_ms: u64,
}

/// The fitted proxy model, wire form: enough for the requester to predict
/// (or to seed AutoML) without the server shipping internal state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelReply {
    /// Whether coefficient 0 is an intercept.
    pub intercept: bool,
    /// Fitted coefficients (intercept first when enabled), in `features`
    /// order. Empty if the model could not be fitted.
    pub coefficients: Vec<f64>,
}

/// Per-stage wall-clock breakdown of one search, wire form (all fields
/// nanoseconds). The stages partition the platform's handling of a submit:
/// `prepare` (validation + sketched-state build), `enumerate` (candidate
/// enumeration under the discovery index read lock), `queue_wait`
/// (admission queue), `run` (the greedy/scatter loop), and `fit` (final
/// model fit) sum to within measurement error of `total`. `cache_build`
/// (candidate projection + first bounds), `eval` (scoring rounds) and
/// `refresh` (bound refresh + union re-projection after join commits) are
/// the portions of `run` spent in those stages — informational, not part
/// of the partition; together they cover `run` up to the commits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanBreakdown {
    /// Submit receipt → reply built.
    pub total_ns: u64,
    /// Request validation + sketched-state build.
    pub prepare_ns: u64,
    /// Candidate enumeration under the discovery index read lock.
    pub enumerate_ns: u64,
    /// Admission-queue wait (enqueue → worker dequeue).
    pub queue_wait_ns: u64,
    /// The search loop itself: candidate projection + greedy rounds, on
    /// every deployment shape.
    pub run_ns: u64,
    /// Time inside `run` spent scoring evaluation rounds.
    pub eval_ns: u64,
    /// Time inside `run` spent projecting candidates and computing their
    /// first score bounds, before round 1. `#[serde(default)]`: absent in
    /// older replies, meaning not measured.
    #[serde(default)]
    pub cache_build_ns: u64,
    /// Time inside `run` spent after join commits recomputing score bounds
    /// and re-projecting union candidates. `#[serde(default)]` as above.
    #[serde(default)]
    pub refresh_ns: u64,
    /// Final model fit after the loop.
    pub fit_ns: u64,
}

impl SpanBreakdown {
    /// Sum of the partitioning stages (everything except `cache_build_ns`,
    /// `eval_ns` and `refresh_ns`, which are subsets of `run_ns`). Should
    /// track `total_ns` closely; a large gap means an unaccounted stage.
    pub fn staged_ns(&self) -> u64 {
        self.prepare_ns + self.enumerate_ns + self.queue_wait_ns + self.run_ns + self.fit_ns
    }
}

/// A completed search, wire form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchReply {
    /// Proxy test-R² before any augmentation.
    pub base_score: f64,
    /// Proxy test-R² after all augmentations.
    pub final_score: f64,
    /// Committed steps, in order.
    pub steps: Vec<ReplyStep>,
    /// Candidate evaluations performed (fully scored).
    pub evaluations: usize,
    /// Candidates pruned by their admissible score bound without being
    /// scored (0 when the search ran in exhaustive mode).
    pub bound_skips: usize,
    /// Store-backed candidates dropped by the request's `CandidateLimits`
    /// at enumeration (0 unless the corpus outgrew the configured caps).
    pub candidates_truncated: usize,
    /// Total wall-clock, in milliseconds.
    pub elapsed_ms: u64,
    /// Why the loop ended.
    pub stop_reason: StopReason,
    /// Model features of the final augmented task (target excluded).
    pub features: Vec<String>,
    /// The proxy model fitted on the final augmented statistics.
    pub model: ModelReply,
    /// The request's correlation id, echoed verbatim ([`WireSearchRequest::
    /// request_id`]); `None` when the caller sent none or the reply never
    /// crossed the wire.
    pub request_id: Option<u64>,
    /// Per-stage wall-clock breakdown of this search.
    pub spans: SpanBreakdown,
    /// `true` when this search ran over a partial shard set (the requester
    /// opted in via `SearchConfig::degraded_ok` and shards were down). A
    /// degraded reply is *complete over the shards that answered* but may
    /// miss selections living on the shards in `shards_missing` — clients
    /// must never mistake it for a full-corpus answer, which is why the
    /// flag rides in the reply body rather than a transport hint.
    /// `#[serde(default)]`: absent in pre-degraded replies, meaning `false`.
    #[serde(default)]
    pub degraded: bool,
    /// Shard indices that did not contribute to a degraded search, in
    /// ascending order. Empty whenever `degraded` is `false`.
    #[serde(default)]
    pub shards_missing: Vec<u32>,
}

impl SearchReply {
    /// Build the wire reply from a finished search outcome and its model.
    pub fn from_outcome(outcome: &SearchOutcome, model: &LinearModel) -> Self {
        SearchReply {
            base_score: outcome.base_score,
            final_score: outcome.final_score,
            steps: outcome
                .steps
                .iter()
                .map(|s| ReplyStep {
                    augmentation: s.augmentation.clone(),
                    score_after: s.score_after,
                    elapsed_ms: s.elapsed.as_millis() as u64,
                })
                .collect(),
            evaluations: outcome.evaluations,
            bound_skips: outcome.bound_skips,
            candidates_truncated: outcome.candidates_truncated,
            elapsed_ms: outcome.elapsed.as_millis() as u64,
            stop_reason: outcome.stop_reason,
            features: outcome.state.features().to_vec(),
            model: ModelReply {
                intercept: true,
                coefficients: model.coefficients().map(|c| c.to_vec()).unwrap_or_default(),
            },
            request_id: None,
            spans: SpanBreakdown {
                run_ns: u64::try_from(outcome.elapsed.as_nanos()).unwrap_or(u64::MAX),
                eval_ns: outcome.round_eval_ns.iter().copied().sum(),
                cache_build_ns: outcome.cache_build_ns,
                refresh_ns: outcome.refresh_ns,
                ..SpanBreakdown::default()
            },
            degraded: false,
            shards_missing: Vec::new(),
        }
    }

    /// The selected union set `R*_∪` (dataset names).
    pub fn selected_unions(&self) -> Vec<&str> {
        self.steps
            .iter()
            .filter_map(|s| match &s.augmentation {
                Augmentation::Union { dataset, .. } => Some(dataset.as_str()),
                _ => None,
            })
            .collect()
    }

    /// The selected join set `R*_⋈` (dataset names).
    pub fn selected_joins(&self) -> Vec<&str> {
        self.steps
            .iter()
            .filter_map(|s| match &s.augmentation {
                Augmentation::Join { dataset, .. } => Some(dataset.as_str()),
                _ => None,
            })
            .collect()
    }
}

/// Search response envelope: exactly one of `ok` / `err` is set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSearchResponse {
    /// Protocol version.
    pub v: u32,
    /// Success payload.
    pub ok: Option<SearchReply>,
    /// Typed failure.
    pub err: Option<WireError>,
}

impl WireSearchResponse {
    /// Success envelope.
    pub fn ok(reply: SearchReply) -> Self {
        WireSearchResponse { v: WIRE_VERSION, ok: Some(reply), err: None }
    }

    /// Error envelope.
    pub fn err(code: ErrorCode, message: impl Into<String>) -> Self {
        WireSearchResponse { v: WIRE_VERSION, ok: None, err: Some(WireError::new(code, message)) }
    }

    /// Error envelope from a platform error (preserves structured fields).
    pub fn err_core(e: &CoreError) -> Self {
        WireSearchResponse { v: WIRE_VERSION, ok: None, err: Some(WireError::from_core(e)) }
    }

    /// Collapse into a client-side result.
    pub fn into_result(self) -> Result<SearchReply> {
        match (self.ok, self.err) {
            (Some(reply), None) => Ok(reply),
            (_, Some(e)) => Err(e.into_core()),
            (None, None) => Err(CoreError::Wire {
                code: ErrorCode::Malformed,
                message: "response carries neither ok nor err".into(),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Admin: checkpoint / stats

/// Administrative operations on the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdminOp {
    /// Write a full-state snapshot and compact the log.
    Checkpoint,
    /// Report platform + storage statistics.
    Stats,
    /// Dump the full metrics registry (counters, gauges, histograms).
    Metrics,
}

/// What a successful checkpoint reports back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointReceipt {
    /// WAL sequence the snapshot covers.
    pub seq: u64,
    /// Datasets captured in the snapshot.
    pub datasets: usize,
    /// Serialized snapshot payload size.
    pub snapshot_bytes: usize,
}

/// Storage-engine state, wire form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageReport {
    /// Storage directory.
    pub dir: String,
    /// Highest journaled sequence number.
    pub last_seq: u64,
    /// Sequence covered by the newest snapshot.
    pub snapshot_seq: Option<u64>,
    /// Records journaled since the last checkpoint (replay debt).
    pub records_since_checkpoint: u64,
    /// Total bytes across live log segments.
    pub wal_bytes: u64,
    /// Live log segment count.
    pub segments: usize,
    /// Live snapshot count.
    pub snapshots: usize,
    /// What the last `open` recovered.
    pub recovery: Option<RecoveryReport>,
    /// Error from the most recent auto-checkpoint attempt, if it failed
    /// (the mutation itself succeeded — the WAL holds it).
    pub last_checkpoint_error: Option<String>,
    /// Latency of WAL appends (journal write + fsync when configured).
    pub append_time: HistogramSummary,
    /// Latency of checkpoints (snapshot write + rotation + purge).
    pub checkpoint_time: HistogramSummary,
}

/// Discovery-tier index shape, wire form (see
/// `mileena_discovery::DiscoveryTierStats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiscoveryReport {
    /// Live indexed datasets.
    pub datasets: usize,
    /// Indexed key-like columns (join tier).
    pub key_columns: usize,
    /// Live LSH band buckets (0 until the corpus crosses the brute-force
    /// limit — small corpora never build the table).
    pub lsh_buckets: usize,
    /// Schema-fingerprint buckets (union tier).
    pub schema_buckets: usize,
    /// Distinct TF-IDF posting terms.
    pub posting_terms: usize,
}

/// Per-stop-reason session completion counts (see
/// `mileena_search::StopReason`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StopCounts {
    /// Sessions that converged (no candidate cleared `min_gain`).
    pub converged: u64,
    /// Sessions that committed every allowed round.
    pub max_augmentations: u64,
    /// Sessions stopped by their time budget or deadline mid-run.
    pub time_budget: u64,
    /// Sessions cooperatively cancelled (queued or running).
    pub cancelled: u64,
    /// Sessions shed by admission control before any round ran.
    pub shed: u64,
}

impl StopCounts {
    /// Record one finished session.
    pub fn record(&mut self, reason: StopReason) {
        match reason {
            StopReason::Converged => self.converged += 1,
            StopReason::MaxAugmentations => self.max_augmentations += 1,
            StopReason::TimeBudget => self.time_budget += 1,
            StopReason::Cancelled => self.cancelled += 1,
            StopReason::Shed => self.shed += 1,
        }
    }
}

/// Session-scheduler state and lifetime counters, wire form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerReport {
    /// Worker-pool size.
    pub workers: usize,
    /// Sessions currently waiting in the admission queue.
    pub queued: usize,
    /// Configured admission-queue bound.
    pub queue_depth_limit: usize,
    /// Deepest the queue has ever been (high-water mark).
    pub queue_high_water: usize,
    /// Sessions admitted (queued or served immediately) over the
    /// platform's lifetime.
    pub admitted: u64,
    /// Sessions that produced a reply (any stop reason).
    pub completed: u64,
    /// Submissions rejected with `Overloaded` (queue full).
    pub shed_overload: u64,
    /// Sessions shed by deadline-aware admission (replied `Shed`).
    pub shed_deadline: u64,
    /// Queued sessions dropped with `Shutdown` at platform drop.
    pub shed_shutdown: u64,
    /// Worker panics converted to typed `Internal` replies.
    pub panicked: u64,
    /// Completions by stop reason.
    pub stops: StopCounts,
    /// Admission-queue wait (enqueue → worker dequeue) across every job
    /// that reached a worker.
    pub queue_wait: HistogramSummary,
    /// Worker execution time of jobs that actually ran (immediate
    /// shed/cancel replies are excluded).
    pub run_time: HistogramSummary,
}

/// Supervision state of one shard, wire form. The state machine is
/// Healthy → Suspect (breaker accumulating strikes) → Quarantined (breaker
/// open, shard excluded from scatter) → Recovering (half-open probe /
/// WAL re-open in flight) → Healthy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardHealthState {
    /// Serving normally; breaker closed.
    #[default]
    Healthy,
    /// Recent failures below the breaker threshold; still serving.
    Suspect,
    /// Breaker open: excluded from scatter until recovery succeeds.
    Quarantined,
    /// Half-open: a recovery (WAL re-open + membership re-merge) or probe
    /// is in flight.
    Recovering,
}

/// Per-shard supervision report: breaker state plus lifetime transition
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// Current supervision state.
    pub state: ShardHealthState,
    /// Consecutive failures currently accumulated against the breaker
    /// (resets to 0 on any success).
    pub consecutive_failures: u64,
    /// Times the breaker opened (shard entered quarantine) over the
    /// platform's lifetime.
    pub breaker_opened: u64,
    /// Gather-deadline timeout strikes recorded against this shard.
    pub timeout_strikes: u64,
    /// Successful recoveries (quarantine → healthy) over the platform's
    /// lifetime.
    pub recoveries: u64,
}

/// Sharded scatter-gather state, wire form (`None` on `CentralPlatform`
/// deployments, which report their one shard's `storage` instead).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Number of shard workers.
    pub shards: usize,
    /// Registered datasets per shard, indexed by shard.
    pub datasets_per_shard: Vec<usize>,
    /// Greedy rounds driven by the scatter-gather coordinator across all
    /// completed searches (each scatters to the shards and gathers one
    /// global incumbent).
    pub scatter_rounds: u64,
    /// Per-shard round evaluations actually scattered (gather count).
    pub gather_rounds: u64,
    /// Shard-rounds skipped whole because the shard's admissible score
    /// ceiling could not beat the global incumbent.
    pub cross_shard_bound_skips: u64,
    /// Shards currently marked unavailable (empty when healthy).
    pub unavailable: Vec<usize>,
    /// Per-shard gather time: one sample per shard-round actually scored
    /// (the latency distribution behind `gather_rounds`).
    pub gather: HistogramSummary,
    /// Per-shard supervision state (one entry per shard, indexed by
    /// `shard`). `#[serde(default)]`: absent in pre-supervision reports.
    #[serde(default)]
    pub health: Vec<ShardHealth>,
}

/// Platform statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformStats {
    /// Registered datasets.
    pub datasets: usize,
    /// Sessions admitted and not yet finished (queued + running).
    pub active_sessions: usize,
    /// Candidates fully scored across all completed searches.
    pub search_evaluations: u64,
    /// Candidates pruned by bound across all completed searches.
    pub search_bound_skips: u64,
    /// Candidates dropped by per-search `CandidateLimits` across all
    /// completed searches (non-zero means limits are actually biting —
    /// an operator signal to raise them or shard the corpus).
    pub search_candidates_truncated: u64,
    /// Discovery-index shape (buckets, postings, key columns).
    pub discovery: DiscoveryReport,
    /// Session-scheduler queue state and shed/panic counters.
    pub scheduler: SchedulerReport,
    /// Storage-engine state (`None` on volatile platforms).
    pub storage: Option<StorageReport>,
    /// Scatter-gather shard state (`None` on single-shard platforms).
    pub shards: Option<ShardReport>,
}

/// Admin request envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireAdminRequest {
    /// Protocol version.
    pub v: u32,
    /// The operation.
    pub op: AdminOp,
}

/// Admin reply payload, tagged by operation.
// Variant sizes are lopsided (`Stats` carries the full report), but the
// value is a transient envelope, never stored in bulk; boxing would need
// `Box` support in the in-tree serde shim for no memory win that matters.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdminReply {
    /// Checkpoint receipt.
    Checkpoint(CheckpointReceipt),
    /// Statistics report.
    Stats(PlatformStats),
    /// Metrics registry dump.
    Metrics(MetricsReport),
}

/// Admin response envelope: exactly one of `ok` / `err` is set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireAdminResponse {
    /// Protocol version.
    pub v: u32,
    /// Success payload.
    pub ok: Option<AdminReply>,
    /// Typed failure.
    pub err: Option<WireError>,
}

impl WireAdminResponse {
    /// Success envelope.
    pub fn ok(reply: AdminReply) -> Self {
        WireAdminResponse { v: WIRE_VERSION, ok: Some(reply), err: None }
    }

    /// Error envelope.
    pub fn err(code: ErrorCode, message: impl Into<String>) -> Self {
        WireAdminResponse { v: WIRE_VERSION, ok: None, err: Some(WireError::new(code, message)) }
    }

    /// Error envelope from a platform error (preserves structured fields).
    pub fn err_core(e: &CoreError) -> Self {
        WireAdminResponse { v: WIRE_VERSION, ok: None, err: Some(WireError::from_core(e)) }
    }

    /// Collapse into a client-side result.
    pub fn into_result(self) -> Result<AdminReply> {
        match (self.ok, self.err) {
            (Some(reply), None) => Ok(reply),
            (_, Some(e)) => Err(e.into_core()),
            (None, None) => Err(CoreError::Wire {
                code: ErrorCode::Malformed,
                message: "response carries neither ok nor err".into(),
            }),
        }
    }
}

/// Streaming progress envelope: one per [`SearchEvent`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireEvent {
    /// Protocol version.
    pub v: u32,
    /// The session this event belongs to.
    pub session: u64,
    /// The event.
    pub event: SearchEvent,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mileena_relation::RelationBuilder;
    use mileena_search::TaskSpec;

    fn sketched() -> SketchedRequest {
        let train = RelationBuilder::new("train")
            .int_col("zone", &[1, 2, 3, 4, 5])
            .float_col("base_x", &[0.1, 0.4, 0.9, 1.6, 2.5])
            .float_col("y", &[1.0, 2.0, 3.0, 4.0, 5.0])
            .build()
            .unwrap();
        let test = train.clone().with_name("test");
        let keys = vec!["zone".to_string()];
        SketchedRequest::sketch(&train, &test, &TaskSpec::new("y", &["base_x"]), Some(&keys))
            .unwrap()
    }

    #[test]
    fn search_request_envelope_roundtrip() {
        let req = WireSearchRequest {
            v: WIRE_VERSION,
            request: sketched(),
            config: Some(SearchConfig::default()),
            request_id: Some(42),
        };
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.starts_with("{\"v\":1,"), "version leads the envelope: {json}");
        let back: WireSearchRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn error_envelope_roundtrip_is_typed() {
        let resp = WireSearchResponse::err(ErrorCode::UnsupportedVersion, "speak v1");
        let json = serde_json::to_string(&resp).unwrap();
        let back: WireSearchResponse = serde_json::from_str(&json).unwrap();
        let err = back.into_result().unwrap_err();
        assert!(matches!(
            err,
            CoreError::Wire { code: ErrorCode::UnsupportedVersion, ref message } if message == "speak v1"
        ));
    }

    #[test]
    fn event_envelope_roundtrip() {
        let ev = WireEvent {
            v: WIRE_VERSION,
            session: 7,
            event: SearchEvent::Started { candidates: 12, truncated: 0 },
        };
        let json = serde_json::to_string(&ev).unwrap();
        let back: WireEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(ev, back);
    }

    #[test]
    fn error_code_mapping_is_pinned() {
        // Structural mappings.
        assert_eq!(code_of(&CoreError::Capacity(4)), ErrorCode::Capacity);
        assert_eq!(code_of(&CoreError::Privacy("x".into())), ErrorCode::BudgetExhausted);
        assert_eq!(code_of(&CoreError::Transform("x".into())), ErrorCode::Internal);
        // The duplicate mapping rides on SketchError's Display wording:
        // this pin fails if that wording ever drifts.
        let dup: CoreError = mileena_sketch::SketchError::DuplicateDataset("d".into()).into();
        assert_eq!(code_of(&dup), ErrorCode::DuplicateDataset);
    }

    #[test]
    fn admin_envelopes_roundtrip() {
        let req = WireAdminRequest { v: WIRE_VERSION, op: AdminOp::Checkpoint };
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.starts_with("{\"v\":1,"), "{json}");
        let back: WireAdminRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);

        let resp = WireAdminResponse::ok(AdminReply::Stats(PlatformStats {
            datasets: 3,
            active_sessions: 1,
            search_evaluations: 120,
            search_bound_skips: 48,
            search_candidates_truncated: 7,
            discovery: DiscoveryReport {
                datasets: 3,
                key_columns: 5,
                lsh_buckets: 0,
                schema_buckets: 2,
                posting_terms: 40,
            },
            scheduler: SchedulerReport {
                workers: 4,
                queued: 2,
                queue_depth_limit: 256,
                queue_high_water: 17,
                admitted: 120,
                completed: 117,
                shed_overload: 9,
                shed_deadline: 3,
                shed_shutdown: 0,
                panicked: 1,
                stops: StopCounts {
                    converged: 80,
                    max_augmentations: 30,
                    time_budget: 2,
                    cancelled: 2,
                    shed: 3,
                },
                queue_wait: HistogramSummary {
                    count: 117,
                    sum_ns: 9_000_000,
                    p50_ns: 60_000,
                    p95_ns: 200_000,
                    p99_ns: 400_000,
                    max_ns: 512_345,
                },
                run_time: HistogramSummary::default(),
            },
            storage: Some(StorageReport {
                dir: "/tmp/x".into(),
                last_seq: 12,
                snapshot_seq: Some(10),
                records_since_checkpoint: 2,
                wal_bytes: 4096,
                segments: 1,
                snapshots: 2,
                recovery: Some(RecoveryReport {
                    snapshot_seq: Some(10),
                    replayed_records: 2,
                    torn_tail: true,
                    invalid_snapshots: 0,
                    snapshot_bytes: 2048,
                    delta_links: 1,
                    eager_ms: 7,
                    replay_ms: 3,
                    lazy_datasets: 4,
                }),
                last_checkpoint_error: None,
                append_time: HistogramSummary {
                    count: 12,
                    sum_ns: 1_200_000,
                    p50_ns: 90_000,
                    p95_ns: 150_000,
                    p99_ns: 150_000,
                    max_ns: 151_000,
                },
                checkpoint_time: HistogramSummary::default(),
            }),
            shards: Some(ShardReport {
                shards: 4,
                datasets_per_shard: vec![1, 0, 2, 0],
                scatter_rounds: 9,
                gather_rounds: 31,
                cross_shard_bound_skips: 5,
                unavailable: vec![2],
                gather: HistogramSummary {
                    count: 31,
                    sum_ns: 31_000_000,
                    p50_ns: 1_000_000,
                    p95_ns: 2_000_000,
                    p99_ns: 2_000_000,
                    max_ns: 2_100_000,
                },
                health: vec![
                    ShardHealth { shard: 0, ..ShardHealth::default() },
                    ShardHealth {
                        shard: 1,
                        state: ShardHealthState::Suspect,
                        consecutive_failures: 2,
                        timeout_strikes: 1,
                        ..ShardHealth::default()
                    },
                    ShardHealth {
                        shard: 2,
                        state: ShardHealthState::Quarantined,
                        consecutive_failures: 3,
                        breaker_opened: 1,
                        timeout_strikes: 0,
                        recoveries: 0,
                    },
                    ShardHealth {
                        shard: 3,
                        recoveries: 1,
                        breaker_opened: 1,
                        ..ShardHealth::default()
                    },
                ],
            }),
        }));
        let json = serde_json::to_string(&resp).unwrap();
        let back: WireAdminResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(resp, back);
        match back.into_result().unwrap() {
            AdminReply::Stats(stats) => {
                assert_eq!(stats.storage.unwrap().recovery.unwrap().replayed_records, 2);
                assert_eq!(stats.scheduler.queue_high_water, 17);
                assert_eq!(stats.scheduler.stops.shed, 3);
                let shards = stats.shards.unwrap();
                assert_eq!(shards.datasets_per_shard, vec![1, 0, 2, 0]);
                assert_eq!(shards.cross_shard_bound_skips, 5);
                assert_eq!(shards.unavailable, vec![2]);
                assert_eq!(shards.gather.count, 31);
                assert_eq!(shards.health.len(), 4);
                assert_eq!(shards.health[2].state, ShardHealthState::Quarantined);
                assert_eq!(shards.health[2].breaker_opened, 1);
                assert_eq!(shards.health[3].recoveries, 1);
                assert_eq!(stats.scheduler.queue_wait.p99_ns, 400_000);
            }
            other => panic!("wrong reply: {other:?}"),
        }

        // The metrics dump rides the same envelope.
        let mut metrics = MetricsReport::default();
        metrics.counters.push(("searches_completed".into(), 12));
        let resp = WireAdminResponse::ok(AdminReply::Metrics(metrics));
        let json = serde_json::to_string(&resp).unwrap();
        let back: WireAdminResponse = serde_json::from_str(&json).unwrap();
        match back.into_result().unwrap() {
            AdminReply::Metrics(m) => assert_eq!(m.counter("searches_completed"), Some(12)),
            other => panic!("wrong reply: {other:?}"),
        }

        let err = WireAdminResponse::err(ErrorCode::Internal, "no storage");
        let json = serde_json::to_string(&err).unwrap();
        let back: WireAdminResponse = serde_json::from_str(&json).unwrap();
        assert!(matches!(
            back.into_result(),
            Err(CoreError::Wire { code: ErrorCode::Internal, .. })
        ));
    }

    #[test]
    fn overloaded_and_shutdown_errors_roundtrip_structured() {
        // Overloaded: the backpressure payload must survive the wire so the
        // client-side retry helper can honor the server's hint.
        let core = CoreError::Overloaded { queue_depth: 64, retry_after_ms: 250 };
        assert_eq!(code_of(&core), ErrorCode::Overloaded);
        let resp = WireSearchResponse::err_core(&core);
        let json = serde_json::to_string(&resp).unwrap();
        let back: WireSearchResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back.into_result().unwrap_err(), core);

        // Shutdown reconstructs structurally too.
        let resp = WireSearchResponse::err_core(&CoreError::Shutdown);
        let json = serde_json::to_string(&resp).unwrap();
        let back: WireSearchResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back.into_result().unwrap_err(), CoreError::Shutdown);

        // A plain-coded error keeps the generic Wire pass-through.
        let resp = WireSearchResponse::err(ErrorCode::Internal, "boom");
        assert!(matches!(
            resp.into_result().unwrap_err(),
            CoreError::Wire { code: ErrorCode::Internal, .. }
        ));
    }

    #[test]
    fn shard_unavailable_roundtrips_with_shard_id() {
        let core = CoreError::ShardUnavailable { shard: 3 };
        assert_eq!(code_of(&core), ErrorCode::ShardUnavailable);
        let resp = WireSearchResponse::err_core(&core);
        assert_eq!(resp.err.as_ref().unwrap().shard, Some(3));
        let json = serde_json::to_string(&resp).unwrap();
        let back: WireSearchResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back.into_result().unwrap_err(), core);

        // Without the shard id the code degrades to the generic pass-through
        // instead of inventing a shard.
        let resp = WireSearchResponse::err(ErrorCode::ShardUnavailable, "shard down");
        assert!(matches!(
            resp.into_result().unwrap_err(),
            CoreError::Wire { code: ErrorCode::ShardUnavailable, .. }
        ));
    }

    fn canned_reply() -> SearchReply {
        SearchReply {
            base_score: 0.4,
            final_score: 0.9,
            steps: Vec::new(),
            evaluations: 7,
            bound_skips: 2,
            candidates_truncated: 0,
            elapsed_ms: 12,
            stop_reason: StopReason::Converged,
            features: vec!["base_x".into()],
            model: ModelReply { intercept: true, coefficients: vec![0.1, 0.8] },
            request_id: Some(99),
            spans: SpanBreakdown::default(),
            degraded: false,
            shards_missing: Vec::new(),
        }
    }

    #[test]
    fn degraded_reply_roundtrips_labeled() {
        let mut reply = canned_reply();
        reply.degraded = true;
        reply.shards_missing = vec![1, 3];
        let resp = WireSearchResponse::ok(reply.clone());
        let json = serde_json::to_string(&resp).unwrap();
        assert!(json.contains("\"degraded\":true"), "label must be explicit on the wire: {json}");
        let back: WireSearchResponse = serde_json::from_str(&json).unwrap();
        let got = back.into_result().unwrap();
        assert!(got.degraded);
        assert_eq!(got.shards_missing, vec![1, 3]);
        assert_eq!(got, reply);
    }

    #[test]
    fn old_style_reply_without_degraded_fields_still_parses() {
        // A reply serialized by a pre-fault-tolerance build has neither
        // `degraded` nor `shards_missing`. The schema-evolution policy
        // (module docs) says additive defaulted fields must parse as their
        // zero value — i.e. an unlabeled reply is a complete reply.
        let json = serde_json::to_string(&WireSearchResponse::ok(canned_reply())).unwrap();
        let stripped =
            json.replace(",\"degraded\":false", "").replace(",\"shards_missing\":[]", "");
        assert_ne!(json, stripped, "test must actually strip the new fields");
        let back: WireSearchResponse = serde_json::from_str(&stripped).unwrap();
        let got = back.into_result().unwrap();
        assert!(!got.degraded);
        assert!(got.shards_missing.is_empty());
        assert_eq!(got, canned_reply());
    }

    #[test]
    fn empty_response_is_malformed() {
        let resp = WireSearchResponse { v: WIRE_VERSION, ok: None, err: None };
        assert!(matches!(
            resp.into_result(),
            Err(CoreError::Wire { code: ErrorCode::Malformed, .. })
        ));
    }
}

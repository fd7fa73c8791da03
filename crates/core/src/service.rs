//! The platform service boundary: one trait, two transports.
//!
//! [`PlatformService`] is the versioned API every deployment shape serves:
//! register provider uploads, submit sketched searches, stream progress.
//! Two transports implement it against the same [`CentralPlatform`]:
//!
//! - [`InProcess`] — direct calls, for co-located/embedded deployments and
//!   as the reference the wire path must match bit for bit;
//! - [`JsonWire`] — every request, event, and response round-trips through
//!   the versioned JSON protocol of [`crate::wire`], exactly as an HTTP or
//!   socket frontend would ship it. No raw relation can cross: the request
//!   body type is [`SketchedRequest`].
//!
//! `submit` returns a [`SearchSession`]: a handle streaming per-round
//! [`SearchEvent`]s, supporting cooperative cancellation, and yielding the
//! final [`SearchReply`]. Sessions run on worker threads, so N requesters
//! search concurrently against consistent corpus snapshots.

use crate::error::{CoreError, Result};
use crate::local::ProviderUpload;
use crate::platform::{CentralPlatform, Layout, Platform};
use crate::wire::{
    AdminOp, AdminReply, CheckpointReceipt, ErrorCode, PlatformStats, RegisterReceipt, SearchReply,
    WireAdminRequest, WireAdminResponse, WireEvent, WireRegisterRequest, WireRegisterResponse,
    WireSearchRequest, WireSearchResponse, WIRE_VERSION,
};
use mileena_obs::{Metrics, MetricsReport};
use mileena_search::{SearchConfig, SearchControl, SearchEvent, SketchedRequest};
use std::sync::mpsc;
use std::sync::Arc;

/// The versioned service API of the central platform. Object-safe: hold a
/// `&dyn PlatformService` to stay transport-agnostic.
pub trait PlatformService {
    /// Register a provider upload into the corpus.
    fn register(&self, upload: ProviderUpload) -> Result<()>;

    /// Submit a sketched search; returns a live session streaming progress.
    /// `config: None` uses the platform's configured default.
    fn submit(
        &self,
        request: SketchedRequest,
        config: Option<SearchConfig>,
    ) -> Result<SearchSession>;

    /// [`PlatformService::submit`] with a caller-chosen correlation id.
    /// Wire transports carry the id in the request envelope and the server
    /// echoes it into the reply's `request_id` (and its slow-search log);
    /// the default ignores it — in-process callers correlate by session
    /// handle, so there is nothing to thread through.
    fn submit_tagged(
        &self,
        request: SketchedRequest,
        config: Option<SearchConfig>,
        request_id: Option<u64>,
    ) -> Result<SearchSession> {
        let _ = request_id;
        self.submit(request, config)
    }

    /// Submit and block until the final reply.
    fn search(
        &self,
        request: SketchedRequest,
        config: Option<SearchConfig>,
    ) -> Result<SearchReply> {
        self.submit(request, config)?.wait()
    }

    /// Number of registered datasets.
    fn num_datasets(&self) -> usize;

    /// Write a full-state snapshot and compact the log (admin). Errors on
    /// volatile platforms, which have nothing to checkpoint to.
    fn checkpoint(&self) -> Result<CheckpointReceipt>;

    /// Platform + storage statistics (admin).
    fn stats(&self) -> Result<PlatformStats>;

    /// Telemetry snapshot: every counter, gauge, and latency histogram the
    /// deployment has recorded (admin).
    fn metrics(&self) -> Result<MetricsReport>;

    /// The live registry this service's platform records into, when the
    /// deployment exposes one — the TCP server uses it to record
    /// connection/frame telemetry alongside the platform's own series.
    /// `None` for client-side transports, which only see snapshots.
    fn metrics_handle(&self) -> Option<Arc<Metrics>> {
        None
    }
}

/// A live search session: consumes streamed [`SearchEvent`]s, supports
/// cooperative cancellation, and yields the final [`SearchReply`].
#[derive(Debug)]
pub struct SearchSession {
    id: u64,
    control: SearchControl,
    events: mpsc::Receiver<SearchEvent>,
    result: mpsc::Receiver<Result<SearchReply>>,
}

impl SearchSession {
    pub(crate) fn new(
        id: u64,
        control: SearchControl,
        events: mpsc::Receiver<SearchEvent>,
        result: mpsc::Receiver<Result<SearchReply>>,
    ) -> Self {
        SearchSession { id, control, events, result }
    }

    /// Platform-assigned session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The session's run control; clone it to cancel from another thread.
    pub fn control(&self) -> &SearchControl {
        &self.control
    }

    /// Request cooperative cancellation: the search stops at the next
    /// round boundary and the final reply reports `StopReason::Cancelled`.
    pub fn cancel(&self) {
        self.control.cancel();
    }

    /// Next streamed event, blocking; `None` once the stream ends.
    pub fn next_event(&self) -> Option<SearchEvent> {
        self.events.recv().ok()
    }

    /// Drain remaining events, then return the final reply.
    pub fn wait(self) -> Result<SearchReply> {
        self.wait_with(|_| {})
    }

    /// Like [`SearchSession::wait`], forwarding each event to `on_event`
    /// as it streams in.
    pub fn wait_with(self, mut on_event: impl FnMut(SearchEvent)) -> Result<SearchReply> {
        while let Ok(ev) = self.events.recv() {
            on_event(ev);
        }
        self.result
            .recv()
            .map_err(|_| CoreError::Service("search session worker vanished".into()))?
    }
}

/// Direct in-process transport: calls land on the platform without any
/// serialization. The reference implementation the wire path must match.
#[derive(Debug, Clone)]
pub struct InProcess {
    platform: Arc<CentralPlatform>,
}

impl InProcess {
    /// Wrap a shared platform.
    pub fn new(platform: Arc<CentralPlatform>) -> Self {
        InProcess { platform }
    }

    /// The underlying platform.
    pub fn platform(&self) -> &Arc<CentralPlatform> {
        &self.platform
    }
}

impl PlatformService for InProcess {
    fn register(&self, upload: ProviderUpload) -> Result<()> {
        self.platform.register(upload)
    }

    fn submit(
        &self,
        request: SketchedRequest,
        config: Option<SearchConfig>,
    ) -> Result<SearchSession> {
        self.platform.submit(request, config)
    }

    fn num_datasets(&self) -> usize {
        self.platform.num_datasets()
    }

    fn checkpoint(&self) -> Result<CheckpointReceipt> {
        self.platform.checkpoint()
    }

    fn stats(&self) -> Result<PlatformStats> {
        self.platform.stats()
    }

    fn metrics(&self) -> Result<MetricsReport> {
        Ok(self.platform.metrics())
    }

    fn metrics_handle(&self) -> Option<Arc<Metrics>> {
        Some(Arc::clone(self.platform.metrics_registry()))
    }
}

/// Serialize a value to wire JSON, mapping failures to a wire error.
fn to_wire_json<T: serde::Serialize>(value: &T) -> Result<String> {
    serde_json::to_string(value).map_err(|e| CoreError::Wire {
        code: ErrorCode::Malformed,
        message: format!("encode: {e}"),
    })
}

/// Wire transport: every message round-trips through the versioned JSON
/// protocol — requests client→server, events and responses server→client —
/// exactly as a networked frontend would carry them. The transport itself
/// is in-memory (`Arc` to the platform), so tests and benches exercise the
/// full serialization path without sockets.
#[derive(Debug, Clone)]
pub struct JsonWire {
    platform: Arc<CentralPlatform>,
}

impl JsonWire {
    /// Wrap a shared platform.
    pub fn new(platform: Arc<CentralPlatform>) -> Self {
        JsonWire { platform }
    }

    /// Ship one admin op through the wire protocol.
    fn admin(&self, op: AdminOp) -> Result<AdminReply> {
        let json = to_wire_json(&WireAdminRequest { v: WIRE_VERSION, op })?;
        let response = self.platform.wire_admin(&json);
        let decoded: WireAdminResponse =
            serde_json::from_str(&response).map_err(|e| CoreError::Wire {
                code: ErrorCode::Malformed,
                message: format!("decode admin response: {e}"),
            })?;
        decoded.into_result()
    }
}

impl PlatformService for JsonWire {
    fn register(&self, upload: ProviderUpload) -> Result<()> {
        let json = to_wire_json(&WireRegisterRequest { v: WIRE_VERSION, upload })?;
        let response = self.platform.wire_register(&json);
        let decoded: WireRegisterResponse =
            serde_json::from_str(&response).map_err(|e| CoreError::Wire {
                code: ErrorCode::Malformed,
                message: format!("decode register response: {e}"),
            })?;
        decoded.into_result().map(|_| ())
    }

    fn submit(
        &self,
        request: SketchedRequest,
        config: Option<SearchConfig>,
    ) -> Result<SearchSession> {
        self.submit_tagged(request, config, None)
    }

    fn submit_tagged(
        &self,
        request: SketchedRequest,
        config: Option<SearchConfig>,
        request_id: Option<u64>,
    ) -> Result<SearchSession> {
        let json =
            to_wire_json(&WireSearchRequest { v: WIRE_VERSION, request, config, request_id })?;
        let wire_session = match self.platform.wire_submit(&json) {
            Ok(s) => s,
            Err(error_json) => {
                let decoded: WireSearchResponse =
                    serde_json::from_str(&error_json).map_err(|e| CoreError::Wire {
                        code: ErrorCode::Malformed,
                        message: format!("decode submit error: {e}"),
                    })?;
                return Err(decoded
                    .into_result()
                    .err()
                    .unwrap_or_else(|| CoreError::Service("submit failed without error".into())));
            }
        };

        // Client-side decoder: turn the JSON event/response stream back
        // into typed values on a forwarding thread.
        let (event_tx, event_rx) = mpsc::channel();
        let (result_tx, result_rx) = mpsc::sync_channel(1);
        let id = wire_session.id;
        let control = wire_session.control.clone();
        std::thread::spawn(move || {
            for event_json in wire_session.events.iter() {
                match serde_json::from_str::<WireEvent>(&event_json) {
                    Ok(we) if we.v == WIRE_VERSION => {
                        let _ = event_tx.send(we.event);
                    }
                    _ => break,
                }
            }
            drop(event_tx);
            let result = match wire_session.result.recv() {
                Ok(response_json) => serde_json::from_str::<WireSearchResponse>(&response_json)
                    .map_err(|e| CoreError::Wire {
                        code: ErrorCode::Malformed,
                        message: format!("decode search response: {e}"),
                    })
                    .and_then(WireSearchResponse::into_result),
                Err(_) => Err(CoreError::Service("wire session dropped".into())),
            };
            let _ = result_tx.send(result);
        });
        Ok(SearchSession::new(id, control, event_rx, result_rx))
    }

    fn num_datasets(&self) -> usize {
        self.platform.num_datasets()
    }

    fn checkpoint(&self) -> Result<CheckpointReceipt> {
        match self.admin(AdminOp::Checkpoint)? {
            AdminReply::Checkpoint(receipt) => Ok(receipt),
            _ => Err(CoreError::Wire {
                code: ErrorCode::Malformed,
                message: "mismatched reply to a checkpoint request".into(),
            }),
        }
    }

    fn stats(&self) -> Result<PlatformStats> {
        match self.admin(AdminOp::Stats)? {
            AdminReply::Stats(stats) => Ok(stats),
            _ => Err(CoreError::Wire {
                code: ErrorCode::Malformed,
                message: "mismatched reply to a stats request".into(),
            }),
        }
    }

    fn metrics(&self) -> Result<MetricsReport> {
        match self.admin(AdminOp::Metrics)? {
            AdminReply::Metrics(report) => Ok(report),
            _ => Err(CoreError::Wire {
                code: ErrorCode::Malformed,
                message: "mismatched reply to a metrics request".into(),
            }),
        }
    }
}

/// Server side of a wire-transport session: streams of already-serialized
/// envelopes (one JSON string per event, one final response).
#[derive(Debug)]
pub struct WireSession {
    /// Platform-assigned session id.
    pub id: u64,
    /// Shared run control (the transport's out-of-band cancellation line).
    pub control: SearchControl,
    /// Serialized [`WireEvent`] envelopes, in order.
    pub events: mpsc::Receiver<String>,
    /// The serialized final [`WireSearchResponse`].
    pub result: mpsc::Receiver<String>,
}

/// Server entry point for registration over the wire: parse, check the
/// version, execute against any [`PlatformService`]; always answers with a
/// serialized [`WireRegisterResponse`] envelope.
pub fn wire_register(service: &(impl PlatformService + ?Sized), request_json: &str) -> String {
    let response = match serde_json::from_str::<WireRegisterRequest>(request_json) {
        Err(e) => WireRegisterResponse::err(ErrorCode::Malformed, e.to_string()),
        Ok(req) if req.v != WIRE_VERSION => WireRegisterResponse::err(
            ErrorCode::UnsupportedVersion,
            format!("server speaks v{WIRE_VERSION}, request is v{}", req.v),
        ),
        Ok(req) => {
            let dataset = req.upload.sketch.name.clone();
            match service.register(req.upload) {
                Ok(()) => WireRegisterResponse::ok(RegisterReceipt {
                    dataset,
                    datasets_total: service.num_datasets(),
                }),
                Err(e) => WireRegisterResponse::err_core(&e),
            }
        }
    };
    serde_json::to_string(&response)
        .unwrap_or_else(|_| format!("{{\"v\":{WIRE_VERSION},\"ok\":null,\"err\":{{\"code\":\"Internal\",\"message\":\"encode failure\"}}}}"))
}

/// Server entry point for admin calls over the wire: parse, check the
/// version, execute against any [`PlatformService`]; always answers with a
/// serialized [`WireAdminResponse`] envelope.
pub fn wire_admin(service: &(impl PlatformService + ?Sized), request_json: &str) -> String {
    let response = match serde_json::from_str::<WireAdminRequest>(request_json) {
        Err(e) => WireAdminResponse::err(ErrorCode::Malformed, e.to_string()),
        Ok(req) if req.v != WIRE_VERSION => WireAdminResponse::err(
            ErrorCode::UnsupportedVersion,
            format!("server speaks v{WIRE_VERSION}, request is v{}", req.v),
        ),
        Ok(req) => {
            let result = match req.op {
                AdminOp::Checkpoint => service.checkpoint().map(AdminReply::Checkpoint),
                AdminOp::Stats => service.stats().map(AdminReply::Stats),
                AdminOp::Metrics => service.metrics().map(AdminReply::Metrics),
            };
            match result {
                Ok(reply) => WireAdminResponse::ok(reply),
                Err(e) => WireAdminResponse::err_core(&e),
            }
        }
    };
    serde_json::to_string(&response)
        .unwrap_or_else(|_| format!("{{\"v\":{WIRE_VERSION},\"ok\":null,\"err\":{{\"code\":\"Internal\",\"message\":\"encode failure\"}}}}"))
}

/// Server entry point for search over the wire: parse, check the version,
/// submit to any [`PlatformService`]. On acceptance, returns a
/// [`WireSession`] whose events/result are serialized envelopes; on
/// rejection, returns the serialized error response.
pub fn wire_submit(
    service: &(impl PlatformService + ?Sized),
    request_json: &str,
) -> std::result::Result<WireSession, String> {
    let reject = |code: ErrorCode, message: String| {
        serde_json::to_string(&WireSearchResponse::err(code, message))
            .unwrap_or_else(|_| "{\"v\":1,\"ok\":null,\"err\":null}".to_string())
    };
    let req = match serde_json::from_str::<WireSearchRequest>(request_json) {
        Err(e) => return Err(reject(ErrorCode::Malformed, e.to_string())),
        Ok(req) if req.v != WIRE_VERSION => {
            return Err(reject(
                ErrorCode::UnsupportedVersion,
                format!("server speaks v{WIRE_VERSION}, request is v{}", req.v),
            ))
        }
        Ok(req) => req,
    };
    let request_id = req.request_id;
    let session = match service.submit_tagged(req.request, req.config, request_id) {
        Ok(s) => s,
        // Structured rejection: Overloaded keeps its queue depth and
        // retry hint on the wire so clients can back off properly.
        Err(e) => {
            return Err(serde_json::to_string(&WireSearchResponse::err_core(&e))
                .unwrap_or_else(|_| "{\"v\":1,\"ok\":null,\"err\":null}".to_string()))
        }
    };

    // Server-side encoder: serialize each event and the final reply.
    let (event_tx, event_rx) = mpsc::channel();
    let (result_tx, result_rx) = mpsc::sync_channel(1);
    let id = session.id();
    let control = session.control().clone();
    std::thread::spawn(move || {
        let session_id = id;
        let reply = session.wait_with(|ev| {
            let envelope = WireEvent { v: WIRE_VERSION, session: session_id, event: ev };
            if let Ok(json) = serde_json::to_string(&envelope) {
                let _ = event_tx.send(json);
            }
        });
        let response = match reply {
            // Echo the caller's correlation id into the reply here, at the
            // wire boundary — the platform itself never sees request ids.
            Ok(mut r) => {
                r.request_id = request_id;
                WireSearchResponse::ok(r)
            }
            Err(e) => WireSearchResponse::err_core(&e),
        };
        let json = serde_json::to_string(&response)
            .unwrap_or_else(|_| "{\"v\":1,\"ok\":null,\"err\":null}".to_string());
        let _ = result_tx.send(json);
    });
    Ok(WireSession { id, control, events: event_rx, result: result_rx })
}

/// The platform itself is a [`PlatformService`]: the trait's reference
/// implementation, letting transports and the TCP server hold `&dyn
/// PlatformService` over a [`CentralPlatform`] or a
/// [`crate::ShardedPlatform`] interchangeably.
impl<L: Layout> PlatformService for Platform<L> {
    fn register(&self, upload: ProviderUpload) -> Result<()> {
        Platform::register(self, upload)
    }

    fn submit(
        &self,
        request: SketchedRequest,
        config: Option<SearchConfig>,
    ) -> Result<SearchSession> {
        Platform::submit(self, request, config)
    }

    fn num_datasets(&self) -> usize {
        Platform::num_datasets(self)
    }

    fn checkpoint(&self) -> Result<CheckpointReceipt> {
        Platform::checkpoint(self)
    }

    fn stats(&self) -> Result<PlatformStats> {
        Platform::stats(self)
    }

    fn metrics(&self) -> Result<MetricsReport> {
        Ok(Platform::metrics(self))
    }

    fn metrics_handle(&self) -> Option<Arc<Metrics>> {
        Some(Arc::clone(self.metrics_registry()))
    }
}

impl<L: Layout> Platform<L> {
    /// Registration over the wire ([`wire_register`] against this
    /// platform).
    pub fn wire_register(&self, request_json: &str) -> String {
        wire_register(self, request_json)
    }

    /// Admin calls over the wire ([`wire_admin`] against this platform).
    pub fn wire_admin(&self, request_json: &str) -> String {
        wire_admin(self, request_json)
    }

    /// Search over the wire ([`wire_submit`] against this platform).
    pub fn wire_submit(&self, request_json: &str) -> std::result::Result<WireSession, String> {
        wire_submit(self, request_json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformConfig;
    use crate::LocalDataStore;
    use mileena_relation::RelationBuilder;
    use mileena_search::TaskSpec;

    fn platform_with_provider() -> Arc<CentralPlatform> {
        let platform = Arc::new(CentralPlatform::new(PlatformConfig::default()));
        let provider = RelationBuilder::new("weather")
            .int_col("zone", &(0..50).collect::<Vec<_>>())
            .float_col("temp", &(0..50).map(|z| (z as f64 * 0.7).sin()).collect::<Vec<_>>())
            .build()
            .unwrap();
        platform.register(LocalDataStore::new(provider).prepare_upload(None, 7).unwrap()).unwrap();
        platform
    }

    fn sketched() -> SketchedRequest {
        let train = RelationBuilder::new("train")
            .int_col("zone", &(0..50).collect::<Vec<_>>())
            .float_col("y", &(0..50).map(|z| (z as f64 * 0.7).sin() * 2.0).collect::<Vec<_>>())
            .build()
            .unwrap();
        let test = train.clone().with_name("test");
        let keys = vec!["zone".to_string()];
        SketchedRequest::sketch(&train, &test, &TaskSpec::new("y", &[]), Some(&keys)).unwrap()
    }

    fn assert_object_safe(service: &dyn PlatformService) -> usize {
        service.num_datasets()
    }

    #[test]
    fn both_transports_serve_the_same_search() {
        let platform = platform_with_provider();
        let in_process = InProcess::new(Arc::clone(&platform));
        let wire = JsonWire::new(Arc::clone(&platform));
        assert_eq!(assert_object_safe(&in_process), 1);
        assert_eq!(assert_object_safe(&wire), 1);

        let direct = in_process.search(sketched(), None).unwrap();
        let via_wire = wire.search(sketched(), None).unwrap();
        // Bit-identical modulo wall-clock: scores, selections, model.
        assert_eq!(direct.base_score, via_wire.base_score);
        assert_eq!(direct.final_score, via_wire.final_score);
        assert_eq!(direct.selected_joins(), via_wire.selected_joins());
        assert_eq!(direct.features, via_wire.features);
        assert_eq!(direct.model, via_wire.model);
        assert_eq!(direct.stop_reason, via_wire.stop_reason);
        assert_eq!(direct.selected_joins(), vec!["weather"]);
    }

    #[test]
    fn wire_register_rejects_versions_and_garbage() {
        let platform = platform_with_provider();
        // Garbage payload.
        let resp: WireRegisterResponse =
            serde_json::from_str(&platform.wire_register("{ not json")).unwrap();
        assert_eq!(resp.err.as_ref().unwrap().code, ErrorCode::Malformed);
        // Wrong version: serialize a valid request, then bump v.
        let upload = LocalDataStore::new(
            RelationBuilder::new("extra")
                .int_col("zone", &[1, 2])
                .float_col("f", &[0.5, 0.7])
                .build()
                .unwrap(),
        )
        .prepare_upload(None, 1)
        .unwrap();
        let json = serde_json::to_string(&WireRegisterRequest { v: 99, upload }).unwrap();
        let resp: WireRegisterResponse =
            serde_json::from_str(&platform.wire_register(&json)).unwrap();
        assert_eq!(resp.err.as_ref().unwrap().code, ErrorCode::UnsupportedVersion);
        assert_eq!(platform.num_datasets(), 1, "rejected upload must not register");
    }

    #[test]
    fn wire_submit_rejects_unsupported_version() {
        let platform = platform_with_provider();
        let json = serde_json::to_string(&WireSearchRequest {
            v: 2,
            request: sketched(),
            config: None,
            request_id: None,
        })
        .unwrap();
        let err_json = platform.wire_submit(&json).unwrap_err();
        let resp: WireSearchResponse = serde_json::from_str(&err_json).unwrap();
        let err = resp.into_result().unwrap_err();
        assert!(matches!(err, CoreError::Wire { code: ErrorCode::UnsupportedVersion, .. }));
    }

    #[test]
    fn admin_calls_work_on_both_transports() {
        let dir =
            std::env::temp_dir().join(format!("mileena-service-admin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = PlatformConfig {
            storage: Some(crate::durable::StoragePolicy::at(&dir)),
            ..Default::default()
        };
        let platform = Arc::new(CentralPlatform::open_with(config).unwrap());
        let provider = RelationBuilder::new("weather")
            .int_col("zone", &(0..50).collect::<Vec<_>>())
            .float_col("temp", &(0..50).map(|z| (z as f64 * 0.7).sin()).collect::<Vec<_>>())
            .build()
            .unwrap();
        platform.register(LocalDataStore::new(provider).prepare_upload(None, 7).unwrap()).unwrap();

        let in_process = InProcess::new(Arc::clone(&platform));
        let wire = JsonWire::new(Arc::clone(&platform));

        // Checkpoint over the wire; stats agree across transports.
        let receipt = wire.checkpoint().unwrap();
        assert_eq!(receipt.datasets, 1);
        assert_eq!(receipt.seq, 1);
        let direct = in_process.stats().unwrap();
        let via_wire = wire.stats().unwrap();
        assert_eq!(direct, via_wire, "stats must round-trip bit-identically");
        assert_eq!(via_wire.storage.as_ref().unwrap().snapshot_seq, Some(1));

        // Version and garbage rejection on the admin entry point.
        let resp: WireAdminResponse = serde_json::from_str(&platform.wire_admin("{ nope")).unwrap();
        assert_eq!(resp.err.as_ref().unwrap().code, ErrorCode::Malformed);
        let bad = serde_json::to_string(&WireAdminRequest { v: 9, op: AdminOp::Stats }).unwrap();
        let resp: WireAdminResponse = serde_json::from_str(&platform.wire_admin(&bad)).unwrap();
        assert_eq!(resp.err.as_ref().unwrap().code, ErrorCode::UnsupportedVersion);

        // Volatile platforms answer stats but refuse checkpoint, with the
        // refusal typed on the wire.
        let volatile = JsonWire::new(Arc::new(CentralPlatform::new(PlatformConfig::default())));
        assert!(volatile.stats().unwrap().storage.is_none());
        assert!(matches!(
            volatile.checkpoint(),
            Err(CoreError::Wire { code: ErrorCode::Internal, .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_surface_evaluation_and_skip_totals() {
        let platform = platform_with_provider();
        let service = InProcess::new(Arc::clone(&platform));
        let before = service.stats().unwrap();
        assert_eq!(before.search_evaluations, 0);
        assert_eq!(before.search_bound_skips, 0);

        let pruned = service.search(sketched(), None).unwrap();
        let after_pruned = service.stats().unwrap();
        assert_eq!(after_pruned.search_evaluations, pruned.evaluations as u64);
        assert_eq!(after_pruned.search_bound_skips, pruned.bound_skips as u64);

        // Exhaustive mode adds evaluations but never skips.
        let exhaustive = service
            .search(sketched(), Some(SearchConfig { pruning: false, ..Default::default() }))
            .unwrap();
        assert_eq!(exhaustive.bound_skips, 0);
        let after_both = service.stats().unwrap();
        assert_eq!(
            after_both.search_evaluations,
            (pruned.evaluations + exhaustive.evaluations) as u64
        );
        assert_eq!(after_both.search_bound_skips, after_pruned.search_bound_skips);
    }

    #[test]
    fn degraded_search_labels_cross_the_wire_envelope() {
        let sharded = Arc::new(crate::ShardedPlatform::new(PlatformConfig {
            shards: 3,
            ..Default::default()
        }));
        for i in 0..6 {
            let provider = RelationBuilder::new(format!("w{i}"))
                .int_col("zone", &(0..50).collect::<Vec<_>>())
                .float_col(
                    "temp",
                    &(0..50).map(|z| ((z + i) as f64 * 0.7).sin()).collect::<Vec<_>>(),
                )
                .build()
                .unwrap();
            sharded
                .register(LocalDataStore::new(provider).prepare_upload(None, 7).unwrap())
                .unwrap();
        }
        sharded.set_shard_available(1, false);

        // Fail-fast default: the typed shard error crosses the envelope.
        let strict = serde_json::to_string(&WireSearchRequest {
            v: WIRE_VERSION,
            request: sketched(),
            config: None,
            request_id: None,
        })
        .unwrap();
        let err_json = wire_submit(sharded.as_ref(), &strict).unwrap_err();
        let resp: WireSearchResponse = serde_json::from_str(&err_json).unwrap();
        assert_eq!(resp.into_result().unwrap_err(), CoreError::ShardUnavailable { shard: 1 });

        // Degraded opt-in: the partial reply crosses labeled.
        let degraded = serde_json::to_string(&WireSearchRequest {
            v: WIRE_VERSION,
            request: sketched(),
            config: Some(SearchConfig { degraded_ok: true, ..Default::default() }),
            request_id: None,
        })
        .unwrap();
        let session = wire_submit(sharded.as_ref(), &degraded).unwrap();
        let reply = serde_json::from_str::<WireSearchResponse>(&session.result.recv().unwrap())
            .unwrap()
            .into_result()
            .unwrap();
        assert!(reply.degraded, "partial scatter must label the reply");
        assert_eq!(reply.shards_missing, vec![1]);

        // Back to full strength: unlabeled again.
        sharded.set_shard_available(1, true);
        let session = wire_submit(sharded.as_ref(), &degraded).unwrap();
        let reply = serde_json::from_str::<WireSearchResponse>(&session.result.recv().unwrap())
            .unwrap()
            .into_result()
            .unwrap();
        assert!(!reply.degraded);
        assert!(reply.shards_missing.is_empty());
    }

    #[test]
    fn wire_session_streams_versioned_events() {
        let platform = platform_with_provider();
        let json = serde_json::to_string(&WireSearchRequest {
            v: WIRE_VERSION,
            request: sketched(),
            config: None,
            request_id: Some(7001),
        })
        .unwrap();
        let session = platform.wire_submit(&json).unwrap();
        let events: Vec<String> = session.events.iter().collect();
        assert!(!events.is_empty());
        for ev in &events {
            let decoded: WireEvent = serde_json::from_str(ev).unwrap();
            assert_eq!(decoded.v, WIRE_VERSION);
            assert_eq!(decoded.session, session.id);
        }
        let final_json = session.result.recv().unwrap();
        let response: WireSearchResponse = serde_json::from_str(&final_json).unwrap();
        let reply = response.into_result().unwrap();
        assert_eq!(reply.request_id, Some(7001), "wire layer must echo the correlation id");
        assert!(reply.spans.total_ns >= reply.spans.run_ns, "total span covers the run stage");
    }
}

//! The platform service boundary: one trait, and the codec its wire
//! clients share.
//!
//! [`PlatformService`] is the versioned API every deployment shape serves:
//! register provider uploads, submit sketched searches, stream progress.
//! [`InProcess`] calls the platform directly and is the reference the wire
//! path must match bit for bit. [`JsonWire`] and [`crate::TcpWire`] send
//! every request, event and response through the versioned JSON protocol
//! of [`crate::wire`]; no raw relation can cross, as the request body type
//! is [`SketchedRequest`].
//!
//! The wire clients share one codec. Its server half is [`wire_register`],
//! [`wire_admin`] and [`wire_submit`], whose [`WireSession`] encodes a
//! running search one envelope at a time. Its client half is the one
//! [`PlatformService`] impl every wire link gets. A link only moves
//! envelopes (`JsonWire` by direct call, `TcpWire` over a socket), and
//! neither spawns a thread: a wire session decodes on the thread that
//! waits on it.

use crate::error::{CoreError, Result};
use crate::local::ProviderUpload;
use crate::net::{ClientFrame, ServerFrame};
use crate::platform::{CentralPlatform, Layout, Platform};
use crate::wire::{
    AdminOp, AdminReply, CheckpointReceipt, ErrorCode, PlatformStats, RegisterReceipt, SearchReply,
    WireAdminRequest, WireAdminResponse, WireError, WireEvent, WireRegisterRequest,
    WireRegisterResponse, WireSearchRequest, WireSearchResponse, WIRE_VERSION,
};
use mileena_obs::{Metrics, MetricsReport};
use mileena_search::{SearchConfig, SearchControl, SearchEvent, SketchedRequest};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
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
    stream: Stream,
}

/// Where a session's events and reply come from.
#[derive(Debug)]
enum Stream {
    /// Typed values sent by a platform worker.
    Local { events: mpsc::Receiver<SearchEvent>, result: mpsc::Receiver<Result<SearchReply>> },
    /// Envelopes decoded on the waiting thread.
    Wire(Box<RefCell<WireDecoder>>),
}

impl SearchSession {
    pub(crate) fn new(
        id: u64,
        control: SearchControl,
        events: mpsc::Receiver<SearchEvent>,
        result: mpsc::Receiver<Result<SearchReply>>,
    ) -> Self {
        SearchSession { id, control, stream: Stream::Local { events, result } }
    }

    /// A session whose frames arrive from `source`, decoded as they are
    /// pulled.
    pub(crate) fn over_wire(
        id: u64,
        control: SearchControl,
        source: impl FrameSource + 'static,
    ) -> Self {
        let decoder = WireDecoder { source: Box::new(source), reply: None };
        SearchSession { id, control, stream: Stream::Wire(Box::new(RefCell::new(decoder))) }
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
        match &self.stream {
            Stream::Local { events, .. } => events.recv().ok(),
            Stream::Wire(decoder) => decoder.borrow_mut().next_event(),
        }
    }

    /// Drain remaining events, then return the final reply.
    pub fn wait(self) -> Result<SearchReply> {
        self.wait_with(|_| {})
    }

    /// Like [`SearchSession::wait`], forwarding each event to `on_event`
    /// as it streams in.
    pub fn wait_with(self, mut on_event: impl FnMut(SearchEvent)) -> Result<SearchReply> {
        while let Some(ev) = self.next_event() {
            on_event(ev);
        }
        self.reply()
    }

    /// The final reply, skipping any events not pulled yet.
    fn reply(&self) -> Result<SearchReply> {
        match &self.stream {
            Stream::Local { result, .. } => result
                .recv()
                .map_err(|_| CoreError::Service("search session worker vanished".into()))?,
            Stream::Wire(decoder) => decoder.borrow_mut().reply(),
        }
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

/// Serialize an envelope or a frame. Should that ever fail, the peer gets
/// a typed `Internal` error in the `{v, ok: null, err}` shape every
/// response envelope shares, never an empty or untyped message.
pub(crate) fn encode_envelope<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_else(|e| {
        let fallback = WireSearchResponse::err(ErrorCode::Internal, format!("encode: {e}"));
        serde_json::to_string(&fallback).expect("an envelope of strings always serializes")
    })
}

/// Decode an envelope; a parse failure is a typed `Malformed` error naming
/// `what` was being decoded.
pub(crate) fn decode<T: for<'de> Deserialize<'de>>(json: &str, what: &str) -> Result<T> {
    serde_json::from_str(json).map_err(|e| CoreError::Wire {
        code: ErrorCode::Malformed,
        message: format!("decode {what}: {e}"),
    })
}

/// Where a wire client pulls a session's [`ServerFrame`]s from: a socket
/// ([`crate::TcpWire`]) or a [`WireSession`] in the same process
/// ([`JsonWire`]).
pub(crate) trait FrameSource: Send + std::fmt::Debug {
    /// The next frame, blocking until it arrives.
    fn next_frame(&mut self) -> Result<ServerFrame>;
}

/// A frame where the protocol does not allow it: a framing `Error`
/// decodes to its typed error, anything else is `Malformed`.
pub(crate) fn unexpected(frame: ServerFrame, position: &str) -> CoreError {
    match frame {
        ServerFrame::Error { json } => {
            decode::<WireError>(&json, "error frame").map_or_else(|e| e, WireError::into_core)
        }
        other => CoreError::Wire {
            code: ErrorCode::Malformed,
            message: format!("unexpected frame in {position} position: {other:?}"),
        },
    }
}

/// The client half of a session: typed values out of envelopes.
#[derive(Debug)]
struct WireDecoder {
    source: Box<dyn FrameSource>,
    /// Set once the stream has ended, by the `Result` or by a failure.
    reply: Option<Result<SearchReply>>,
}

impl WireDecoder {
    fn next_event(&mut self) -> Option<SearchEvent> {
        if self.reply.is_some() {
            return None;
        }
        let reply = match self.source.next_frame() {
            Ok(ServerFrame::Event { json, .. }) => match decode::<WireEvent>(&json, "event") {
                Ok(envelope) if envelope.v == WIRE_VERSION => return Some(envelope.event),
                Ok(envelope) => Err(CoreError::Wire {
                    code: ErrorCode::UnsupportedVersion,
                    message: format!("client speaks v{WIRE_VERSION}, event is v{}", envelope.v),
                }),
                Err(e) => Err(e),
            },
            Ok(ServerFrame::Result { json, .. }) => {
                decode::<WireSearchResponse>(&json, "search response")
                    .and_then(WireSearchResponse::into_result)
            }
            Ok(other) => Err(unexpected(other, "mid-session")),
            Err(e) => Err(e),
        };
        self.reply = Some(reply);
        None
    }

    fn reply(&mut self) -> Result<SearchReply> {
        while self.next_event().is_some() {}
        self.reply.take().unwrap_or_else(|| Err(CoreError::Service("reply already taken".into())))
    }
}

/// How a wire client reaches a server, and nothing more: requests go out,
/// response envelopes come back. Every link is a [`PlatformService`]
/// through the one codec below.
pub(crate) trait WireLink {
    /// Carry a `Register` or `Admin` frame; the response envelope.
    fn call(&self, frame: ClientFrame) -> Result<String>;
    /// Carry a search request envelope.
    fn open(&self, request_json: String) -> Result<Opened>;
}

/// What a link's [`WireLink::open`] got back.
pub(crate) enum Opened {
    /// The server admitted the search.
    Session(SearchSession),
    /// The server refused it: the serialized error response.
    Rejected(String),
}

/// A reply of the wrong kind to an admin request.
fn mismatched(op: &str) -> CoreError {
    CoreError::Wire {
        code: ErrorCode::Malformed,
        message: format!("mismatched reply to a {op} request"),
    }
}

impl<L: WireLink> PlatformService for L {
    fn register(&self, upload: ProviderUpload) -> Result<()> {
        let json = encode_envelope(&WireRegisterRequest { v: WIRE_VERSION, upload });
        let response = self.call(ClientFrame::Register { json })?;
        decode::<WireRegisterResponse>(&response, "register response")?.into_result().map(|_| ())
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
            encode_envelope(&WireSearchRequest { v: WIRE_VERSION, request, config, request_id });
        match self.open(json)? {
            Opened::Session(session) => Ok(session),
            // Overloaded retry hints and shard ids survive intact.
            Opened::Rejected(json) => Err(decode::<WireSearchResponse>(&json, "submit rejection")?
                .into_result()
                .err()
                .unwrap_or_else(|| CoreError::Wire {
                    code: ErrorCode::Malformed,
                    message: "submit rejected without an error".into(),
                })),
        }
    }

    fn num_datasets(&self) -> usize {
        self.stats().map_or(0, |stats| stats.datasets)
    }

    fn checkpoint(&self) -> Result<CheckpointReceipt> {
        match admin(self, AdminOp::Checkpoint)? {
            AdminReply::Checkpoint(receipt) => Ok(receipt),
            _ => Err(mismatched("checkpoint")),
        }
    }

    fn stats(&self) -> Result<PlatformStats> {
        match admin(self, AdminOp::Stats)? {
            AdminReply::Stats(stats) => Ok(stats),
            _ => Err(mismatched("stats")),
        }
    }

    fn metrics(&self) -> Result<MetricsReport> {
        match admin(self, AdminOp::Metrics)? {
            AdminReply::Metrics(report) => Ok(report),
            _ => Err(mismatched("metrics")),
        }
    }
}

/// Ship one admin op over a link.
fn admin(link: &impl WireLink, op: AdminOp) -> Result<AdminReply> {
    let json = encode_envelope(&WireAdminRequest { v: WIRE_VERSION, op });
    decode::<WireAdminResponse>(&link.call(ClientFrame::Admin { json })?, "admin response")?
        .into_result()
}

/// Wire transport without a socket: every message round-trips through the
/// versioned JSON protocol, exactly as a networked frontend carries it,
/// but the envelopes are handed straight to the server entry points, so
/// tests and benches exercise the full serialization path in-process.
#[derive(Debug, Clone)]
pub struct JsonWire {
    platform: Arc<CentralPlatform>,
}

impl JsonWire {
    /// Wrap a shared platform.
    pub fn new(platform: Arc<CentralPlatform>) -> Self {
        JsonWire { platform }
    }
}

impl WireLink for JsonWire {
    fn call(&self, frame: ClientFrame) -> Result<String> {
        match frame {
            ClientFrame::Register { json } => Ok(wire_register(&*self.platform, &json)),
            ClientFrame::Admin { json } => Ok(wire_admin(&*self.platform, &json)),
            other => Err(CoreError::Wire {
                code: ErrorCode::Malformed,
                message: format!("{other:?} is not a request/response frame"),
            }),
        }
    }

    fn open(&self, request_json: String) -> Result<Opened> {
        Ok(match wire_submit(&*self.platform, &request_json) {
            Ok(session) => Opened::Session(SearchSession::over_wire(
                session.id,
                session.control.clone(),
                session,
            )),
            Err(rejection) => Opened::Rejected(rejection),
        })
    }
}

/// Server side of a wire-transport session: a pull-based encoder over the
/// typed [`SearchSession`]. Whoever moves the bytes (the TCP server's
/// forwarder, or [`JsonWire`] on the waiting thread) pulls serialized
/// events one at a time, then the final response.
#[derive(Debug)]
pub struct WireSession {
    /// Platform-assigned session id.
    pub id: u64,
    /// Shared run control (the transport's out-of-band cancellation line).
    pub control: SearchControl,
    session: SearchSession,
    request_id: Option<u64>,
}

impl WireSession {
    /// The next serialized [`WireEvent`] envelope, blocking; `None` once
    /// the event stream ends.
    pub fn next_event(&self) -> Option<String> {
        let event = self.session.next_event()?;
        Some(encode_envelope(&WireEvent { v: WIRE_VERSION, session: self.id, event }))
    }

    /// Block for the final response, skipping events not pulled yet.
    pub fn finish(&self) -> WireSearchResponse {
        match self.session.reply() {
            // Echo the caller's correlation id into the reply here, at the
            // wire boundary: the platform itself never sees request ids.
            Ok(mut reply) => {
                reply.request_id = self.request_id;
                WireSearchResponse::ok(reply)
            }
            Err(e) => WireSearchResponse::err_core(&e),
        }
    }
}

impl FrameSource for WireSession {
    fn next_frame(&mut self) -> Result<ServerFrame> {
        let session = self.id;
        Ok(match self.next_event() {
            Some(json) => ServerFrame::Event { session, json },
            None => ServerFrame::Result { session, json: encode_envelope(&self.finish()) },
        })
    }
}

/// Parse a request envelope and check its protocol version; on failure,
/// the code and message of the error response.
fn parse_request<T: for<'de> Deserialize<'de>>(
    json: &str,
    version: fn(&T) -> u32,
) -> std::result::Result<T, (ErrorCode, String)> {
    let req = serde_json::from_str(json).map_err(|e| (ErrorCode::Malformed, e.to_string()))?;
    match version(&req) {
        WIRE_VERSION => Ok(req),
        v => Err((
            ErrorCode::UnsupportedVersion,
            format!("server speaks v{WIRE_VERSION}, request is v{v}"),
        )),
    }
}

/// Server entry point for registration over the wire: parse, check the
/// version, execute against any [`PlatformService`]; always answers with a
/// serialized [`WireRegisterResponse`] envelope.
pub fn wire_register(service: &(impl PlatformService + ?Sized), request_json: &str) -> String {
    let response = match parse_request(request_json, |r: &WireRegisterRequest| r.v) {
        Err((code, message)) => WireRegisterResponse::err(code, message),
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
    encode_envelope(&response)
}

/// Server entry point for admin calls over the wire: parse, check the
/// version, execute against any [`PlatformService`]; always answers with a
/// serialized [`WireAdminResponse`] envelope.
pub fn wire_admin(service: &(impl PlatformService + ?Sized), request_json: &str) -> String {
    let response = match parse_request(request_json, |r: &WireAdminRequest| r.v) {
        Err((code, message)) => WireAdminResponse::err(code, message),
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
    encode_envelope(&response)
}

/// Server entry point for search over the wire: parse, check the version,
/// submit to any [`PlatformService`]. On acceptance, returns the
/// [`WireSession`] encoder; on rejection, the serialized error response.
pub fn wire_submit(
    service: &(impl PlatformService + ?Sized),
    request_json: &str,
) -> std::result::Result<WireSession, String> {
    let req = parse_request(request_json, |r: &WireSearchRequest| r.v)
        .map_err(|(code, message)| encode_envelope(&WireSearchResponse::err(code, message)))?;
    match service.submit_tagged(req.request, req.config, req.request_id) {
        Ok(session) => Ok(WireSession {
            id: session.id(),
            control: session.control().clone(),
            session,
            request_id: req.request_id,
        }),
        // Structured rejection: Overloaded keeps its queue depth and
        // retry hint on the wire so clients can back off properly.
        Err(e) => Err(encode_envelope(&WireSearchResponse::err_core(&e))),
    }
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
            serde_json::from_str(&wire_register(&*platform, "{ not json")).unwrap();
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
            serde_json::from_str(&wire_register(&*platform, &json)).unwrap();
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
        let err_json = wire_submit(&*platform, &json).unwrap_err();
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
        let resp: WireAdminResponse =
            serde_json::from_str(&wire_admin(&*platform, "{ nope")).unwrap();
        assert_eq!(resp.err.as_ref().unwrap().code, ErrorCode::Malformed);
        let bad = serde_json::to_string(&WireAdminRequest { v: 9, op: AdminOp::Stats }).unwrap();
        let resp: WireAdminResponse = serde_json::from_str(&wire_admin(&*platform, &bad)).unwrap();
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
        let reply = session.finish().into_result().unwrap();
        assert!(reply.degraded, "partial scatter must label the reply");
        assert_eq!(reply.shards_missing, vec![1]);

        // Back to full strength: unlabeled again.
        sharded.set_shard_available(1, true);
        let session = wire_submit(sharded.as_ref(), &degraded).unwrap();
        let reply = session.finish().into_result().unwrap();
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
        let session = wire_submit(&*platform, &json).unwrap();
        let events: Vec<String> = std::iter::from_fn(|| session.next_event()).collect();
        assert!(!events.is_empty());
        for ev in &events {
            let decoded: WireEvent = serde_json::from_str(ev).unwrap();
            assert_eq!(decoded.v, WIRE_VERSION);
            assert_eq!(decoded.session, session.id);
        }
        let response = session.finish();
        let reply = response.into_result().unwrap();
        assert_eq!(reply.request_id, Some(7001), "wire layer must echo the correlation id");
        assert!(reply.spans.total_ns >= reply.spans.run_ns, "total span covers the run stage");
    }
}

//! A real TCP front-end for the platform: length-prefixed JSON frames over
//! `std::net`, carrying the exact same versioned envelopes as [`JsonWire`]
//! (registration, admin, search submission, streamed events, final
//! replies) — so everything proven about the in-memory wire transport
//! holds over a socket, including `Overloaded { retry_after_ms }`
//! round-tripping and typed shard errors.
//!
//! **Framing.** Every message is a 4-byte big-endian length prefix
//! followed by that many bytes of JSON — a [`ClientFrame`] client→server,
//! a [`ServerFrame`] server→client. A frame longer than the configured
//! `max_frame` is rejected with a typed [`ServerFrame::Error`] and the
//! connection is closed (the peer is either broken or hostile; resyncing a
//! corrupt length prefix is not worth guessing at).
//!
//! **Server shape.** One accept loop (non-blocking + shutdown flag), one
//! thread per connection, one forwarder thread per in-flight search
//! session multiplexing its event/result envelopes back over the shared
//! (mutexed) write half. A client disconnect cancels that connection's
//! in-flight sessions — nobody is left computing for a requester who hung
//! up. [`TcpServer::shutdown`] stops accepting, drains in-flight sessions
//! (their final results still flush to connected clients), joins every
//! thread, and returns.
//!
//! **Client shape.** [`TcpWire`] implements [`PlatformService`] over
//! pooled request/response connections, plus one dedicated connection per
//! search session (a cancel watcher bridges [`SearchControl::cancel`] to a
//! [`ClientFrame::Cancel`] frame, so session handles behave identically to
//! the in-process ones).
//!
//! [`JsonWire`]: crate::service::JsonWire

use crate::error::{CoreError, Result};
use crate::local::ProviderUpload;
use crate::service::{wire_admin, wire_register, wire_submit, PlatformService, SearchSession};
use crate::wire::{
    AdminOp, AdminReply, CheckpointReceipt, ErrorCode, PlatformStats, WireAdminRequest,
    WireAdminResponse, WireError, WireEvent, WireRegisterRequest, WireRegisterResponse,
    WireSearchRequest, WireSearchResponse, WIRE_VERSION,
};
use mileena_obs::{Metrics, MetricsReport, SlowSearchLog};
use mileena_search::{SearchConfig, SearchControl, SketchedRequest};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client→server frames. The JSON payloads inside `Register`/`Admin`/
/// `Submit` are the versioned wire envelopes of [`crate::wire`], unchanged
/// — framing adds transport, not schema.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ClientFrame {
    /// A serialized [`WireRegisterRequest`].
    Register {
        /// The envelope JSON.
        json: String,
    },
    /// A serialized [`WireAdminRequest`].
    Admin {
        /// The envelope JSON.
        json: String,
    },
    /// A serialized [`WireSearchRequest`]; answered by
    /// [`ServerFrame::Accepted`] then a stream of events and one result.
    Submit {
        /// The envelope JSON.
        json: String,
    },
    /// Cooperatively cancel an accepted session on this connection.
    Cancel {
        /// The session id from [`ServerFrame::Accepted`].
        session: u64,
    },
}

/// Server→client frames.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ServerFrame {
    /// Response envelope for `Register`/`Admin` (a serialized
    /// [`WireRegisterResponse`] / [`WireAdminResponse`]).
    Reply {
        /// The envelope JSON.
        json: String,
    },
    /// A submit was admitted; events and the result follow, tagged with
    /// this session id.
    Accepted {
        /// Platform-assigned session id.
        session: u64,
    },
    /// A streamed [`WireEvent`] envelope for an accepted session.
    Event {
        /// The session the event belongs to.
        session: u64,
        /// The envelope JSON.
        json: String,
    },
    /// The final [`WireSearchResponse`] envelope for a session. A submit
    /// that was rejected outright (overload, shard down, malformed) is a
    /// `Result` with `session: 0` and the error envelope.
    Result {
        /// The session the response closes (0 = rejected at submit).
        session: u64,
        /// The envelope JSON.
        json: String,
    },
    /// Framing-level failure (oversized or undecodable frame): a
    /// serialized [`WireError`]. Oversized frames also close the
    /// connection.
    Error {
        /// The serialized [`WireError`].
        json: String,
    },
}

/// TCP transport tuning.
#[derive(Debug, Clone)]
pub struct TcpServerConfig {
    /// Maximum accepted frame payload, bytes. Larger frames get a typed
    /// error and the connection is closed.
    pub max_frame: usize,
    /// Poll interval for the accept loop and connection read loops (they
    /// watch the shutdown flag between reads).
    pub poll_interval: Duration,
    /// Slow-search log: every search whose reply's `spans.total_ns`
    /// crossed the log's threshold gets one JSONL record (session id,
    /// wire `request_id`, full span breakdown). `None` disables the check.
    pub slow_log: Option<Arc<SlowSearchLog>>,
}

impl Default for TcpServerConfig {
    fn default() -> Self {
        TcpServerConfig {
            max_frame: 32 << 20,
            poll_interval: Duration::from_millis(20),
            slow_log: None,
        }
    }
}

fn encode_frame<T: Serialize>(frame: &T) -> Vec<u8> {
    let payload = serde_json::to_string(frame).unwrap_or_default().into_bytes();
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(&payload);
    buf
}

/// Decode a frame payload (UTF-8 JSON bytes) into `T`.
fn decode_payload<T: for<'de> Deserialize<'de>>(payload: &[u8]) -> std::result::Result<T, String> {
    let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

fn write_frame<T: Serialize>(stream: &mut TcpStream, frame: &T) -> std::io::Result<()> {
    stream.write_all(&encode_frame(frame))?;
    stream.flush()
}

fn write_frame_locked<T: Serialize>(writer: &Mutex<TcpStream>, frame: &T) -> std::io::Result<()> {
    let mut stream = writer.lock().unwrap_or_else(|e| e.into_inner());
    write_frame(&mut stream, frame)
}

/// Blocking frame read (client side): length prefix, then payload.
fn read_frame<T: for<'de> Deserialize<'de>>(stream: &mut TcpStream, max_frame: usize) -> Result<T> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).map_err(|e| CoreError::Service(format!("tcp read: {e}")))?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(CoreError::Wire {
            code: ErrorCode::Malformed,
            message: format!("peer announced a {len}-byte frame (max {max_frame})"),
        });
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).map_err(|e| CoreError::Service(format!("tcp read: {e}")))?;
    decode_payload(&payload).map_err(|e| CoreError::Wire {
        code: ErrorCode::Malformed,
        message: format!("decode frame: {e}"),
    })
}

/// What the incremental parser pulled out of the connection buffer.
enum Parsed {
    /// A complete, decoded client frame.
    Frame(ClientFrame),
    /// A complete frame that wasn't valid [`ClientFrame`] JSON.
    Garbage(String),
    /// The announced length exceeds the limit: reply typed, close.
    Oversized(usize),
    /// Not enough buffered bytes yet.
    Incomplete,
}

/// Pull one frame off the front of `buf` if a complete one has arrived.
/// Partial reads simply leave bytes buffered until the rest shows up.
fn parse_frame(buf: &mut Vec<u8>, max_frame: usize) -> Parsed {
    if buf.len() < 4 {
        return Parsed::Incomplete;
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > max_frame {
        return Parsed::Oversized(len);
    }
    if buf.len() < 4 + len {
        return Parsed::Incomplete;
    }
    let payload: Vec<u8> = buf.drain(..4 + len).skip(4).collect();
    match decode_payload::<ClientFrame>(&payload) {
        Ok(frame) => Parsed::Frame(frame),
        Err(e) => Parsed::Garbage(e),
    }
}

/// The TCP server: owns the accept loop and every connection thread.
#[derive(Debug)]
pub struct TcpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving `service`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<dyn PlatformService + Send + Sync>,
        config: TcpServerConfig,
    ) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let accept = std::thread::spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            while !flag.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let service = Arc::clone(&service);
                        let flag = Arc::clone(&flag);
                        let config = config.clone();
                        conns.push(std::thread::spawn(move || {
                            serve_connection(stream, service, flag, config);
                        }));
                        // Opportunistically reap finished connections so a
                        // long-lived server doesn't accumulate handles.
                        conns.retain(|h| !h.is_finished());
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(config.poll_interval);
                    }
                    Err(_) => break,
                }
            }
            for conn in conns {
                let _ = conn.join();
            }
        });
        Ok(TcpServer { addr, shutdown, accept: Some(accept) })
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, let connection threads drain
    /// their in-flight sessions (final results still reach connected
    /// clients), join everything.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One connection: incremental frame parsing on the read half, a mutexed
/// write half shared with per-session forwarder threads.
fn serve_connection(
    stream: TcpStream,
    service: Arc<dyn PlatformService + Send + Sync>,
    shutdown: Arc<AtomicBool>,
    config: TcpServerConfig,
) {
    let Ok(write_half) = stream.try_clone() else { return };
    // The connection span and net counters record into the platform's own
    // registry when the deployment exposes one; client-only services don't.
    let metrics = service.metrics_handle();
    let conn_start = Instant::now();
    if let Some(m) = &metrics {
        m.net_connections.inc();
        m.connections_open.add(1);
    }
    let writer = Arc::new(Mutex::new(write_half));
    let mut reader = stream;
    let _ = reader.set_read_timeout(Some(config.poll_interval));
    // Session id → run control, for Cancel frames and disconnect cleanup.
    let sessions: Arc<Mutex<HashMap<u64, SearchControl>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut forwarders: Vec<JoinHandle<()>> = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut disconnected = false;

    'conn: while !shutdown.load(Ordering::SeqCst) {
        match reader.read(&mut chunk) {
            Ok(0) => {
                disconnected = true;
                break 'conn;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(_) => {
                disconnected = true;
                break 'conn;
            }
        }
        loop {
            match parse_frame(&mut buf, config.max_frame) {
                Parsed::Incomplete => break,
                Parsed::Oversized(len) => {
                    let err = WireError::new(
                        ErrorCode::Malformed,
                        format!("frame of {len} bytes exceeds the {}-byte limit", config.max_frame),
                    );
                    let json = serde_json::to_string(&err).unwrap_or_default();
                    let _ = write_frame_locked(&writer, &ServerFrame::Error { json });
                    break 'conn;
                }
                Parsed::Garbage(detail) => {
                    let err = WireError::new(
                        ErrorCode::Malformed,
                        format!("undecodable frame: {detail}"),
                    );
                    let json = serde_json::to_string(&err).unwrap_or_default();
                    if write_frame_locked(&writer, &ServerFrame::Error { json }).is_err() {
                        disconnected = true;
                        break 'conn;
                    }
                }
                Parsed::Frame(frame) => {
                    if let Some(m) = &metrics {
                        m.net_frames_in.inc();
                    }
                    if !handle_frame(
                        frame,
                        &service,
                        &writer,
                        &sessions,
                        &mut forwarders,
                        &metrics,
                        &config.slow_log,
                    ) {
                        disconnected = true;
                        break 'conn;
                    }
                }
            }
        }
    }

    if disconnected {
        // The requester hung up: cancel whatever is still computing for
        // them so no worker slot is left burning for a dead socket.
        for control in sessions.lock().unwrap_or_else(|e| e.into_inner()).values() {
            control.cancel();
        }
    }
    // Graceful path: in-flight sessions finish and flush their results
    // (cancelled ones finish immediately at the next round boundary).
    for forwarder in forwarders {
        let _ = forwarder.join();
    }
    if let Some(m) = &metrics {
        m.connections_open.add(-1);
        m.connection_serve.record_duration(conn_start.elapsed());
    }
}

/// Count one server→client frame, when a registry is attached.
fn frame_out(metrics: &Option<Arc<Metrics>>) {
    if let Some(m) = metrics {
        m.net_frames_out.inc();
    }
}

/// Append a slow-search JSONL record when a final search response crossed
/// the log's threshold. The record carries the session id, the wire
/// `request_id` (JSON `null` when the caller sent none), and the full
/// per-stage span breakdown, so one grep correlates client, server log,
/// and metrics.
fn maybe_log_slow(
    slow_log: &Option<Arc<SlowSearchLog>>,
    metrics: &Option<Arc<Metrics>>,
    session: u64,
    response_json: &str,
) {
    let Some(log) = slow_log else { return };
    let Ok(response) = serde_json::from_str::<WireSearchResponse>(response_json) else { return };
    let Some(reply) = response.ok else { return };
    if reply.spans.total_ns < log.threshold_ns() {
        return;
    }
    if let Some(m) = metrics {
        m.slow_searches.inc();
    }
    let s = &reply.spans;
    let request_id = reply.request_id.map_or_else(|| "null".to_string(), |id| id.to_string());
    log.log_line(&format!(
        concat!(
            "{{\"session\":{},\"request_id\":{},\"stop_reason\":\"{:?}\",",
            "\"evaluations\":{},\"rounds\":{},\"total_ns\":{},\"prepare_ns\":{},",
            "\"enumerate_ns\":{},\"queue_wait_ns\":{},\"run_ns\":{},\"cache_build_ns\":{},",
            "\"eval_ns\":{},\"refresh_ns\":{},\"fit_ns\":{}}}"
        ),
        session,
        request_id,
        reply.stop_reason,
        reply.evaluations,
        reply.steps.len(),
        s.total_ns,
        s.prepare_ns,
        s.enumerate_ns,
        s.queue_wait_ns,
        s.run_ns,
        s.cache_build_ns,
        s.eval_ns,
        s.refresh_ns,
        s.fit_ns,
    ));
}

/// Dispatch one decoded client frame. Returns `false` when the write half
/// is dead and the connection should be torn down.
fn handle_frame(
    frame: ClientFrame,
    service: &Arc<dyn PlatformService + Send + Sync>,
    writer: &Arc<Mutex<TcpStream>>,
    sessions: &Arc<Mutex<HashMap<u64, SearchControl>>>,
    forwarders: &mut Vec<JoinHandle<()>>,
    metrics: &Option<Arc<Metrics>>,
    slow_log: &Option<Arc<SlowSearchLog>>,
) -> bool {
    match frame {
        ClientFrame::Register { json } => {
            if let Some(m) = metrics {
                m.requests_register.inc();
            }
            let reply = wire_register(&**service, &json);
            frame_out(metrics);
            write_frame_locked(writer, &ServerFrame::Reply { json: reply }).is_ok()
        }
        ClientFrame::Admin { json } => {
            if let Some(m) = metrics {
                m.requests_admin.inc();
            }
            let reply = wire_admin(&**service, &json);
            frame_out(metrics);
            write_frame_locked(writer, &ServerFrame::Reply { json: reply }).is_ok()
        }
        ClientFrame::Cancel { session } => {
            if let Some(m) = metrics {
                m.requests_cancel.inc();
            }
            if let Some(control) = sessions.lock().unwrap_or_else(|e| e.into_inner()).get(&session)
            {
                control.cancel();
            }
            true
        }
        ClientFrame::Submit { json } => {
            if let Some(m) = metrics {
                m.requests_submit.inc();
            }
            match wire_submit(&**service, &json) {
                Err(error_json) => {
                    frame_out(metrics);
                    write_frame_locked(
                        writer,
                        &ServerFrame::Result { session: 0, json: error_json },
                    )
                    .is_ok()
                }
                Ok(wire_session) => {
                    let id = wire_session.id;
                    sessions
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert(id, wire_session.control.clone());
                    frame_out(metrics);
                    if write_frame_locked(writer, &ServerFrame::Accepted { session: id }).is_err() {
                        wire_session.control.cancel();
                        return false;
                    }
                    let writer = Arc::clone(writer);
                    let sessions = Arc::clone(sessions);
                    let metrics = metrics.clone();
                    let slow_log = slow_log.clone();
                    forwarders.push(std::thread::spawn(move || {
                        for json in wire_session.events.iter() {
                            frame_out(&metrics);
                            if write_frame_locked(
                                &writer,
                                &ServerFrame::Event { session: id, json },
                            )
                            .is_err()
                            {
                                // Dead socket: stop forwarding, but still wait
                                // for the result below so the worker's
                                // sync_send never blocks forever.
                                break;
                            }
                        }
                        if let Ok(json) = wire_session.result.recv() {
                            maybe_log_slow(&slow_log, &metrics, id, &json);
                            frame_out(&metrics);
                            let _ = write_frame_locked(
                                &writer,
                                &ServerFrame::Result { session: id, json },
                            );
                        }
                        sessions.lock().unwrap_or_else(|e| e.into_inner()).remove(&id);
                    }));
                    true
                }
            }
        }
    }
}

/// [`PlatformService`] over TCP: the client half of the protocol.
/// Request/response calls use a small connection pool; each search session
/// gets a dedicated connection carrying its event/result stream.
#[derive(Debug)]
pub struct TcpWire {
    addr: SocketAddr,
    max_frame: usize,
    pool: Mutex<Vec<TcpStream>>,
}

impl TcpWire {
    /// Connect to a [`TcpServer`] at `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<TcpWire> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| CoreError::Service(format!("resolve: {e}")))?
            .next()
            .ok_or_else(|| CoreError::Service("address resolved to nothing".into()))?;
        // Fail fast if nobody is listening; the probe connection seeds the
        // pool.
        let probe =
            TcpStream::connect(addr).map_err(|e| CoreError::Service(format!("connect: {e}")))?;
        Ok(TcpWire {
            addr,
            max_frame: TcpServerConfig::default().max_frame,
            pool: Mutex::new(vec![probe]),
        })
    }

    /// A connection for one round trip, and whether it came out of the
    /// pool (a pooled stream may have died with a server restart — its
    /// first use after that fails, and [`TcpWire::call`] retries fresh).
    fn checkout(&self) -> Result<(TcpStream, bool)> {
        if let Some(stream) = self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop() {
            return Ok((stream, true));
        }
        let stream = TcpStream::connect(self.addr)
            .map_err(|e| CoreError::Service(format!("connect: {e}")))?;
        Ok((stream, false))
    }

    fn checkin(&self, stream: TcpStream) {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < 8 {
            pool.push(stream);
        }
    }

    /// One pooled request/response round trip: send a frame, read the
    /// `Reply` (surfacing a framing `Error` as the typed wire error).
    /// A transport failure on a *pooled* stream — the server restarted
    /// while the connection sat idle — drops the dead stream and retries
    /// exactly once on a fresh dial; fresh-connection failures surface
    /// immediately.
    fn call(&self, frame: &ClientFrame) -> Result<String> {
        let (stream, pooled) = self.checkout()?;
        match self.round_trip(stream, frame) {
            Err(CoreError::Service(_)) if pooled => {
                let stream = TcpStream::connect(self.addr)
                    .map_err(|e| CoreError::Service(format!("connect: {e}")))?;
                self.round_trip(stream, frame)
            }
            other => other,
        }
    }

    fn round_trip(&self, mut stream: TcpStream, frame: &ClientFrame) -> Result<String> {
        write_frame(&mut stream, frame)
            .map_err(|e| CoreError::Service(format!("tcp write: {e}")))?;
        match read_frame::<ServerFrame>(&mut stream, self.max_frame)? {
            ServerFrame::Reply { json } => {
                self.checkin(stream);
                Ok(json)
            }
            ServerFrame::Error { json } => Err(decode_frame_error(&json)),
            other => Err(CoreError::Wire {
                code: ErrorCode::Malformed,
                message: format!("unexpected frame in reply position: {other:?}"),
            }),
        }
    }

    fn admin(&self, op: AdminOp) -> Result<AdminReply> {
        let json = serde_json::to_string(&WireAdminRequest { v: WIRE_VERSION, op })
            .map_err(|e| CoreError::Wire { code: ErrorCode::Malformed, message: e.to_string() })?;
        let response = self.call(&ClientFrame::Admin { json })?;
        serde_json::from_str::<WireAdminResponse>(&response)
            .map_err(|e| CoreError::Wire {
                code: ErrorCode::Malformed,
                message: format!("decode admin response: {e}"),
            })?
            .into_result()
    }
}

/// Decode a [`ServerFrame::Error`] payload into the typed core error.
fn decode_frame_error(json: &str) -> CoreError {
    match serde_json::from_str::<WireError>(json) {
        Ok(err) => err.into_core(),
        Err(e) => CoreError::Wire {
            code: ErrorCode::Malformed,
            message: format!("undecodable error frame: {e}"),
        },
    }
}

impl PlatformService for TcpWire {
    fn register(&self, upload: ProviderUpload) -> Result<()> {
        let json = serde_json::to_string(&WireRegisterRequest { v: WIRE_VERSION, upload })
            .map_err(|e| CoreError::Wire { code: ErrorCode::Malformed, message: e.to_string() })?;
        let response = self.call(&ClientFrame::Register { json })?;
        serde_json::from_str::<WireRegisterResponse>(&response)
            .map_err(|e| CoreError::Wire {
                code: ErrorCode::Malformed,
                message: format!("decode register response: {e}"),
            })?
            .into_result()
            .map(|_| ())
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
        let json = serde_json::to_string(&WireSearchRequest {
            v: WIRE_VERSION,
            request,
            config,
            request_id,
        })
        .map_err(|e| CoreError::Wire { code: ErrorCode::Malformed, message: e.to_string() })?;
        // Dedicated connection: the event/result stream owns the socket.
        let mut stream = TcpStream::connect(self.addr)
            .map_err(|e| CoreError::Service(format!("connect: {e}")))?;
        write_frame(&mut stream, &ClientFrame::Submit { json })
            .map_err(|e| CoreError::Service(format!("tcp write: {e}")))?;
        let id = match read_frame::<ServerFrame>(&mut stream, self.max_frame)? {
            ServerFrame::Accepted { session } => session,
            ServerFrame::Result { json, .. } => {
                // Rejected at submit: decode the typed error envelope
                // (Overloaded retry hints and shard ids survive intact).
                let decoded: WireSearchResponse =
                    serde_json::from_str(&json).map_err(|e| CoreError::Wire {
                        code: ErrorCode::Malformed,
                        message: format!("decode submit rejection: {e}"),
                    })?;
                return Err(decoded.into_result().err().unwrap_or_else(|| {
                    CoreError::Service("submit rejected without an error".into())
                }));
            }
            ServerFrame::Error { json } => return Err(decode_frame_error(&json)),
            other => {
                return Err(CoreError::Wire {
                    code: ErrorCode::Malformed,
                    message: format!("unexpected frame after submit: {other:?}"),
                })
            }
        };

        let control = SearchControl::new();
        let done = Arc::new(AtomicBool::new(false));
        // Cancel watcher: bridge local control.cancel() to a Cancel frame
        // on a cloned write half, so cancellation crosses the wire without
        // disturbing the reader.
        if let Ok(mut cancel_half) = stream.try_clone() {
            let watch_control = control.clone();
            let watch_done = Arc::clone(&done);
            std::thread::spawn(move || {
                while !watch_done.load(Ordering::SeqCst) {
                    if watch_control.is_cancelled() {
                        let _ = write_frame(&mut cancel_half, &ClientFrame::Cancel { session: id });
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            });
        }

        let (event_tx, event_rx) = mpsc::channel();
        let (result_tx, result_rx) = mpsc::sync_channel(1);
        let max_frame = self.max_frame;
        std::thread::spawn(move || {
            let result = loop {
                match read_frame::<ServerFrame>(&mut stream, max_frame) {
                    Ok(ServerFrame::Event { json, .. }) => {
                        match serde_json::from_str::<WireEvent>(&json) {
                            Ok(we) if we.v == WIRE_VERSION => {
                                let _ = event_tx.send(we.event);
                            }
                            _ => {
                                break Err(CoreError::Wire {
                                    code: ErrorCode::Malformed,
                                    message: "bad event envelope".into(),
                                })
                            }
                        }
                    }
                    Ok(ServerFrame::Result { json, .. }) => {
                        break serde_json::from_str::<WireSearchResponse>(&json)
                            .map_err(|e| CoreError::Wire {
                                code: ErrorCode::Malformed,
                                message: format!("decode search response: {e}"),
                            })
                            .and_then(WireSearchResponse::into_result);
                    }
                    Ok(ServerFrame::Error { json }) => break Err(decode_frame_error(&json)),
                    Ok(other) => {
                        break Err(CoreError::Wire {
                            code: ErrorCode::Malformed,
                            message: format!("unexpected mid-session frame: {other:?}"),
                        })
                    }
                    Err(e) => break Err(e),
                }
            };
            done.store(true, Ordering::SeqCst);
            drop(event_tx);
            let _ = result_tx.send(result);
        });
        Ok(SearchSession::new(id, control, event_rx, result_rx))
    }

    fn num_datasets(&self) -> usize {
        match self.stats() {
            Ok(stats) => stats.datasets,
            Err(_) => 0,
        }
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

//! A real TCP front-end for the platform: length-prefixed JSON frames over
//! `std::net`, carrying the same versioned envelopes as [`JsonWire`],
//! encoded and decoded by the same codec, so everything proven about the
//! in-memory wire transport holds over a socket.
//!
//! **Framing.** Every message is a 4-byte big-endian length prefix
//! followed by that many bytes of JSON — a [`ClientFrame`] client→server,
//! a [`ServerFrame`] server→client. A frame holds its typed envelope
//! itself, so there is one JSON layer per frame: each side serializes a
//! message once, in `encode_frame`, and parses it once, in
//! `decode_payload`. The parser refuses arrays and objects nested deeper
//! than [`serde_json::MAX_DEPTH`] (128), so a small hostile frame cannot
//! overflow a connection thread's stack. A frame that does not decode,
//! such as one in the older layout that nested each envelope as a JSON
//! string (`{"Register":{"json":"…"}}`), is answered with a typed
//! `Malformed` [`ServerFrame::Error`], and the connection keeps serving. A
//! frame longer than the configured `max_frame` gets the same error and
//! the connection is closed (the peer is either broken or hostile;
//! resyncing a corrupt length prefix is not worth guessing at).
//!
//! **Versions.** Envelopes keep their `v` field. The server entry points
//! ([`wire_register`], [`wire_admin`], [`wire_submit`]) check it and
//! answer a version they do not speak with a typed `UnsupportedVersion`
//! response; the client checks the `v` of every streamed event.
//!
//! **Server shape.** The accept thread blocks in `accept`, each
//! connection's thread blocks in `read`, and each in-flight search has one
//! forwarder thread writing its event/result frames; nothing waits on a
//! timer. A client disconnect cancels the connection's in-flight sessions.
//! [`TcpServer::shutdown`] wakes the accept thread with a self-connect and
//! the connections by shutting down their read halves, drains in-flight
//! sessions (their results still reach the clients), and joins every
//! thread.
//!
//! **Client shape.** [`TcpWire`] checks an idle connection out of a small
//! pool for every call, a whole search included, and dials only when none
//! is idle. A search reads its frames on the thread that waits on it and
//! hands the connection back after the result; cancelling its control
//! writes a [`ClientFrame::Cancel`]. Dropping an un-awaited session closes
//! its connection, which the server treats as a cancel.
//!
//! [`JsonWire`]: crate::service::JsonWire
//! [`wire_register`]: crate::service::wire_register
//! [`wire_admin`]: crate::service::wire_admin
//! [`wire_submit`]: crate::service::wire_submit

use crate::error::{CoreError, Result};
use crate::service::{
    refusal, wire_admin, wire_register, wire_submit, FrameSource, PlatformService, SearchSession,
    WireLink, WireSession,
};
use crate::wire::{
    ErrorCode, SearchReply, WireAdminRequest, WireAdminResponse, WireError, WireEvent,
    WireRegisterRequest, WireRegisterResponse, WireSearchRequest, WireSearchResponse,
};
use mileena_obs::{Metrics, SlowSearchLog};
use mileena_search::SearchControl;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

/// Client→server frames: the versioned request envelopes of
/// [`crate::wire`] themselves. Framing adds transport, not schema.
// Variant sizes are lopsided, but a frame is transient, never stored in
// bulk; boxing would need `Box` support in the in-tree serde shim.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientFrame {
    /// A provider upload; answered by [`ServerFrame::Registered`].
    Register(WireRegisterRequest),
    /// An admin operation; answered by [`ServerFrame::AdminReply`].
    Admin(WireAdminRequest),
    /// A search; answered by [`ServerFrame::Accepted`], then a stream of
    /// events and one result.
    Submit(WireSearchRequest),
    /// Cooperatively cancel an accepted session on this connection.
    Cancel {
        /// The session id from [`ServerFrame::Accepted`].
        session: u64,
    },
}

/// Server→client frames: the versioned response envelopes of
/// [`crate::wire`] themselves.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerFrame {
    /// The response to a `Register`.
    Registered(WireRegisterResponse),
    /// The response to an `Admin`.
    AdminReply(WireAdminResponse),
    /// A submit was admitted; events and the result follow, tagged with
    /// this session id.
    Accepted {
        /// Platform-assigned session id.
        session: u64,
    },
    /// A streamed progress event of an accepted session; the envelope
    /// names the session.
    Event(WireEvent),
    /// The final response of a session. A submit that was rejected
    /// outright (overload, shard down, wrong version) is a `Result` with
    /// `session: 0` and the error response.
    Result {
        /// The session the response closes (0 = rejected at submit).
        session: u64,
        /// The response envelope.
        response: WireSearchResponse,
    },
    /// A frame that could not be served: undecodable, or oversized (which
    /// also closes the connection).
    Error(WireError),
}

/// TCP transport tuning.
#[derive(Debug, Clone)]
pub struct TcpServerConfig {
    /// Maximum accepted frame payload, bytes. Larger frames get a typed
    /// error and the connection is closed.
    pub max_frame: usize,
    /// Slow-search log: every search whose reply's `spans.total_ns`
    /// crossed the log's threshold gets one JSONL record (session id,
    /// wire `request_id`, full span breakdown). `None` disables the check.
    pub slow_log: Option<Arc<SlowSearchLog>>,
}

/// The default `max_frame`, and the largest frame a [`TcpWire`] reads.
const MAX_FRAME: usize = 32 << 20;

impl Default for TcpServerConfig {
    fn default() -> Self {
        TcpServerConfig { max_frame: MAX_FRAME, slow_log: None }
    }
}

/// Encode a frame: the length prefix, then its one JSON document. Should
/// serialization ever fail, the frame sent is a typed `Internal`
/// [`ServerFrame::Error`], never an empty or untyped message.
pub(crate) fn encode_frame<T: Serialize>(frame: &T) -> Vec<u8> {
    let payload = serde_json::to_string(frame).unwrap_or_else(|e| {
        let fallback =
            ServerFrame::Error(WireError::new(ErrorCode::Internal, format!("encode: {e}")));
        serde_json::to_string(&fallback).expect("an error frame of strings always serializes")
    });
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload.as_bytes());
    buf
}

/// Decode a frame payload (UTF-8 JSON bytes); an undecodable one is a
/// typed `Malformed` error.
pub(crate) fn decode_payload<T: for<'de> Deserialize<'de>>(
    payload: &[u8],
) -> std::result::Result<T, WireError> {
    let text = std::str::from_utf8(payload).map_err(|e| e.to_string());
    text.and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
        .map_err(|e| WireError::new(ErrorCode::Malformed, format!("undecodable frame: {e}")))
}

/// `frame` as the peer reads it, after the encoder and decoder every
/// socket frame passes through.
pub(crate) fn across<T: Serialize + for<'de> Deserialize<'de>>(frame: &T) -> Result<T> {
    decode_payload(&encode_frame(frame)[4..]).map_err(WireError::into_core)
}

fn write_frame<T: Serialize>(mut stream: impl Write, frame: &T) -> std::io::Result<()> {
    stream.write_all(&encode_frame(frame))
}

/// Blocking frame read (client side): length prefix, then payload.
fn read_frame(mut stream: impl Read) -> Result<ServerFrame> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).map_err(|e| CoreError::Service(format!("tcp read: {e}")))?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        let message = format!("peer announced a {len}-byte frame (max {MAX_FRAME})");
        return Err(WireError::new(ErrorCode::Malformed, message).into_core());
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).map_err(|e| CoreError::Service(format!("tcp read: {e}")))?;
    decode_payload(&payload).map_err(WireError::into_core)
}

/// What the incremental parser pulled out of the connection buffer.
#[allow(clippy::large_enum_variant)] // transient, like the frame it holds
#[derive(Debug)]
enum Parsed {
    /// A complete, decoded client frame.
    Frame(ClientFrame),
    /// A complete frame that wasn't a valid [`ClientFrame`].
    Garbage(WireError),
    /// The announced length exceeds the limit: reply typed, close.
    Oversized(WireError),
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
        let message = format!("frame of {len} bytes exceeds the {max_frame}-byte limit");
        return Parsed::Oversized(WireError::new(ErrorCode::Malformed, message));
    }
    if buf.len() < 4 + len {
        return Parsed::Incomplete;
    }
    let payload: Vec<u8> = buf.drain(..4 + len).skip(4).collect();
    match decode_payload(&payload) {
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
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let accept = std::thread::spawn(move || {
            // Each live connection's thread, and a handle to wake it with.
            // The handle is weak: a finished connection's socket closes.
            let mut conns: Vec<(JoinHandle<()>, Weak<Conn>)> = Vec::new();
            for stream in listener.incoming() {
                // The flag is set before the waking self-connect is made.
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { break };
                let _ = stream.set_nodelay(true);
                let conn = Arc::new(Conn {
                    stream,
                    writing: Mutex::new(()),
                    sessions: Mutex::default(),
                    metrics: service.metrics_handle(),
                    slow_log: config.slow_log.clone(),
                });
                let wake = Arc::downgrade(&conn);
                let (service, flag, max_frame) =
                    (Arc::clone(&service), Arc::clone(&flag), config.max_frame);
                // Dropping a finished thread's handle frees it.
                conns.retain(|(thread, _)| !thread.is_finished());
                conns.push((
                    std::thread::spawn(move || {
                        serve_connection(&conn, &*service, &flag, max_frame)
                    }),
                    wake,
                ));
            }
            // A read half shut down reads as end of stream: each connection
            // thread wakes, drains its in-flight sessions over the write
            // half, which stays open, and exits.
            for conn in conns.iter().filter_map(|(_, conn)| conn.upgrade()) {
                let _ = conn.stream.shutdown(Shutdown::Read);
            }
            for (thread, _) in conns {
                let _ = thread.join();
            }
        });
        Ok(TcpServer { addr, shutdown, accept: Some(accept) })
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown, as dropping the server does: stop accepting, let
    /// connection threads drain their in-flight sessions (final results
    /// still reach connected clients), join everything. Returns while
    /// clients still hold connections open.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept thread; a wildcard bind is reached on loopback.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            let loopback = if wake.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            };
            wake.set_ip(loopback);
        }
        let _ = TcpStream::connect(wake);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// One connection, shared by its reader thread and its session forwarders.
/// The socket closes when the last of them lets go.
struct Conn {
    stream: TcpStream,
    /// Held while a frame is written, so frames never interleave.
    writing: Mutex<()>,
    /// Session id → run control, for Cancel frames and disconnect cleanup.
    sessions: Mutex<HashMap<u64, SearchControl>>,
    /// The platform's registry, when the deployment exposes one;
    /// client-only services don't.
    metrics: Option<Arc<Metrics>>,
    slow_log: Option<Arc<SlowSearchLog>>,
}

impl Conn {
    /// Write one frame; `false` once the socket is dead. The frame is
    /// encoded before the lock is taken, so encoding a large result does
    /// not hold up the reply to the next call on this connection.
    fn send(&self, frame: &ServerFrame) -> bool {
        if let Some(m) = &self.metrics {
            m.net_frames_out.inc();
        }
        let bytes = encode_frame(frame);
        let _writing = self.writing.lock().unwrap_or_else(|e| e.into_inner());
        (&self.stream).write_all(&bytes).is_ok()
    }

    fn sessions(&self) -> MutexGuard<'_, HashMap<u64, SearchControl>> {
        self.sessions.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Read and dispatch a connection's frames until it ends, incrementally
/// parsing across partial reads.
fn serve_connection(
    conn: &Arc<Conn>,
    service: &(dyn PlatformService + Send + Sync),
    shutdown: &AtomicBool,
    max_frame: usize,
) {
    let conn_start = Instant::now();
    if let Some(m) = &conn.metrics {
        m.net_connections.inc();
        m.connections_open.add(1);
    }
    let mut forwarders: Vec<JoinHandle<()>> = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];

    // Whether the sessions still in flight are cancelled on the way out.
    let cancel = 'conn: loop {
        match (&conn.stream).read(&mut chunk) {
            // End of stream: the requester hung up, or shutdown woke us.
            Ok(0) => break !shutdown.load(Ordering::SeqCst),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break true,
        }
        loop {
            match parse_frame(&mut buf, max_frame) {
                Parsed::Incomplete => break,
                Parsed::Oversized(error) => {
                    conn.send(&ServerFrame::Error(error));
                    break 'conn false;
                }
                Parsed::Garbage(error) => {
                    if !conn.send(&ServerFrame::Error(error)) {
                        break 'conn true;
                    }
                }
                Parsed::Frame(frame) => {
                    if let Some(m) = &conn.metrics {
                        m.net_frames_in.inc();
                    }
                    if !handle_frame(conn, frame, service, &mut forwarders) {
                        break 'conn true;
                    }
                }
            }
        }
        // One connection serves many searches: free finished forwarders.
        forwarders.retain(|f| !f.is_finished());
    };

    if cancel {
        // Nobody is left computing for a requester who hung up.
        for control in conn.sessions().values() {
            control.cancel();
        }
    }
    // In-flight sessions finish and flush their results (cancelled ones
    // finish at the next round boundary).
    for forwarder in forwarders {
        let _ = forwarder.join();
    }
    if let Some(m) = &conn.metrics {
        m.connections_open.add(-1);
        m.connection_serve.record_duration(conn_start.elapsed());
    }
}

/// Dispatch one decoded client frame. Returns `false` when the write half
/// is dead and the connection should be torn down.
fn handle_frame(
    conn: &Arc<Conn>,
    frame: ClientFrame,
    service: &(dyn PlatformService + Send + Sync),
    forwarders: &mut Vec<JoinHandle<()>>,
) -> bool {
    let count = |counter: fn(&Metrics) -> &mileena_obs::Counter| {
        if let Some(m) = &conn.metrics {
            counter(m).inc();
        }
    };
    match frame {
        ClientFrame::Register(request) => {
            count(|m| &m.requests_register);
            conn.send(&ServerFrame::Registered(wire_register(service, request)))
        }
        ClientFrame::Admin(request) => {
            count(|m| &m.requests_admin);
            conn.send(&ServerFrame::AdminReply(wire_admin(service, request)))
        }
        ClientFrame::Cancel { session } => {
            count(|m| &m.requests_cancel);
            if let Some(control) = conn.sessions().get(&session) {
                control.cancel();
            }
            true
        }
        ClientFrame::Submit(request) => {
            count(|m| &m.requests_submit);
            let session = match wire_submit(service, request) {
                Ok(session) => session,
                Err(response) => return conn.send(&ServerFrame::Result { session: 0, response }),
            };
            conn.sessions().insert(session.id, session.control.clone());
            if !conn.send(&ServerFrame::Accepted { session: session.id }) {
                session.control.cancel();
                return false;
            }
            let conn = Arc::clone(conn);
            forwarders.push(std::thread::spawn(move || forward(&conn, &session)));
            true
        }
    }
}

/// Pull one session's events, then its final response, onto the
/// connection.
fn forward(conn: &Conn, session: &WireSession) {
    let id = session.id;
    while let Some(event) = session.next_event() {
        // A dead socket stops the events; the response is still awaited
        // below, so the session runs to its end.
        if !conn.send(&ServerFrame::Event(event)) {
            break;
        }
    }
    let response = session.finish();
    if let Some(reply) = &response.ok {
        maybe_log_slow(conn, id, reply);
    }
    conn.send(&ServerFrame::Result { session: id, response });
    conn.sessions().remove(&id);
}

/// Append a slow-search JSONL record when a final search reply crossed
/// the log's threshold. The record carries the session id, the wire
/// `request_id` (JSON `null` when the caller sent none), and the full
/// per-stage span breakdown, so one grep correlates client, server log,
/// and metrics.
fn maybe_log_slow(conn: &Conn, session: u64, reply: &SearchReply) {
    let Some(log) = &conn.slow_log else { return };
    if reply.spans.total_ns < log.threshold_ns() {
        return;
    }
    if let Some(m) = &conn.metrics {
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

/// [`PlatformService`] over TCP: the client half of the protocol, over a
/// small pool of connections that every call and every search checks out
/// and hands back. Dropping the client closes every idle connection; a
/// search in flight closes its own when it ends.
#[derive(Debug)]
pub struct TcpWire {
    addr: SocketAddr,
    /// Idle connections. A search holds only a weak handle to give its
    /// connection back, so the pool dies with the client.
    pool: Arc<Mutex<Vec<TcpStream>>>,
}

/// Idle connections a [`TcpWire`] keeps; more are closed when handed back.
const MAX_IDLE: usize = 8;

fn dial(addr: SocketAddr) -> Result<TcpStream> {
    let stream =
        TcpStream::connect(addr).map_err(|e| CoreError::Service(format!("connect: {e}")))?;
    // A search is several small frames back to back on one connection.
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

fn check_in(pool: &Mutex<Vec<TcpStream>>, stream: TcpStream) {
    let mut pool = pool.lock().unwrap_or_else(|e| e.into_inner());
    if pool.len() < MAX_IDLE {
        pool.push(stream);
    }
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
        let probe = dial(addr)?;
        Ok(TcpWire { addr, pool: Arc::new(Mutex::new(vec![probe])) })
    }

    /// Send `frame` and read the first frame of the answer, on an idle
    /// connection when there is one. A transport failure on an idle
    /// connection (the server restarted while it sat in the pool) drops it
    /// and retries exactly once on a fresh dial; failures on a fresh
    /// connection surface immediately.
    fn exchange(&self, frame: &ClientFrame) -> Result<(TcpStream, ServerFrame)> {
        let idle = self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop();
        if let Some(stream) = idle {
            match Self::round_trip(stream, frame) {
                Err(CoreError::Service(_)) => {}
                other => return other,
            }
        }
        Self::round_trip(dial(self.addr)?, frame)
    }

    fn round_trip(mut stream: TcpStream, frame: &ClientFrame) -> Result<(TcpStream, ServerFrame)> {
        write_frame(&mut stream, frame)
            .map_err(|e| CoreError::Service(format!("tcp write: {e}")))?;
        let first = read_frame(&mut stream)?;
        Ok((stream, first))
    }

    /// The client end of accepted session `id`, on `stream`.
    fn session(&self, stream: TcpStream, id: u64) -> SearchSession {
        let stream = Arc::new(stream);
        let control = SearchControl::new();
        // The cancelling thread writes the Cancel frame itself. Once the
        // result is in, the session hands the connection back and this
        // line goes dead.
        let line = Arc::downgrade(&stream);
        control.on_cancel(move || {
            if let Some(stream) = line.upgrade() {
                let _ = write_frame(&*stream, &ClientFrame::Cancel { session: id });
            }
        });
        let source = TcpSession { stream: Some(stream), pool: Arc::downgrade(&self.pool) };
        SearchSession::over_wire(id, control, source)
    }
}

impl WireLink for TcpWire {
    fn call(&self, frame: ClientFrame) -> Result<ServerFrame> {
        let (stream, reply) = self.exchange(&frame)?;
        if let ServerFrame::Registered(_) | ServerFrame::AdminReply(_) = reply {
            check_in(&self.pool, stream);
        }
        Ok(reply)
    }

    fn open(&self, request: WireSearchRequest) -> Result<SearchSession> {
        match self.exchange(&ClientFrame::Submit(request))? {
            (stream, ServerFrame::Accepted { session }) => Ok(self.session(stream, session)),
            (stream, refused) => {
                if let ServerFrame::Result { .. } = refused {
                    check_in(&self.pool, stream);
                }
                Err(refusal(refused))
            }
        }
    }
}

/// One search's connection, read on the thread that waits on the session.
#[derive(Debug)]
struct TcpSession {
    /// `None` once the result is in and the connection was handed back.
    stream: Option<Arc<TcpStream>>,
    pool: Weak<Mutex<Vec<TcpStream>>>,
}

impl FrameSource for TcpSession {
    fn next_frame(&mut self) -> Result<ServerFrame> {
        let stream = self
            .stream
            .as_deref()
            .ok_or_else(|| CoreError::Service("search session already finished".into()))?;
        let frame = read_frame(stream)?;
        if let ServerFrame::Result { .. } = frame {
            // Nothing more arrives on the connection for this session: hand
            // it back, unless the client is gone or a cancel is being
            // written on it this instant.
            let stream = self.stream.take().map(Arc::try_unwrap);
            if let (Some(pool), Some(Ok(stream))) = (self.pool.upgrade(), stream) {
                check_in(&pool, stream);
            }
        }
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{AdminOp, WIRE_VERSION};
    use crate::LocalDataStore;
    use mileena_relation::RelationBuilder;

    fn small_frames() -> Vec<ClientFrame> {
        let tiny = RelationBuilder::new("tiny")
            .int_col("zone", &[1, 2])
            .float_col("f", &[0.5, -0.25])
            .build()
            .unwrap();
        let upload = LocalDataStore::new(tiny).prepare_upload(None, 1).unwrap();
        vec![
            ClientFrame::Admin(WireAdminRequest { v: WIRE_VERSION, op: AdminOp::Stats }),
            ClientFrame::Register(WireRegisterRequest { v: WIRE_VERSION, upload }),
        ]
    }

    fn parse_all(mut bytes: Vec<u8>, max_frame: usize) -> Parsed {
        parse_frame(&mut bytes, max_frame)
    }

    #[test]
    fn frames_cross_the_codec_unchanged() {
        for frame in small_frames() {
            assert_eq!(across(&frame).unwrap(), frame);
            match parse_all(encode_frame(&frame), MAX_FRAME) {
                Parsed::Frame(parsed) => assert_eq!(parsed, frame),
                other => panic!("a whole frame parsed as {other:?}"),
            }
        }
    }

    /// Every truncation and every single-byte flip of a small frame comes
    /// back as one of the parser's outcomes, never as a panic.
    #[test]
    fn truncated_and_flipped_frames_parse_or_fail_typed() {
        for frame in small_frames() {
            let bytes = encode_frame(&frame);
            let payload = &bytes[4..];
            for cut in 0..bytes.len() {
                // The prefix still announces the whole frame: wait for it.
                let parsed = parse_all(bytes[..cut].to_vec(), MAX_FRAME);
                assert!(matches!(parsed, Parsed::Incomplete), "cut at {cut}: {parsed:?}");
            }
            for cut in 0..payload.len() {
                // A truncated document under a prefix that matches it.
                let mut reframed = (cut as u32).to_be_bytes().to_vec();
                reframed.extend_from_slice(&payload[..cut]);
                let parsed = parse_all(reframed, MAX_FRAME);
                assert!(matches!(parsed, Parsed::Garbage(_)), "cut at {cut}: {parsed:?}");
            }
            for at in 0..bytes.len() {
                // Every byte inverted, and its lowest bit alone flipped.
                for mask in [0xFF, 0x01] {
                    let mut flipped = bytes.clone();
                    flipped[at] ^= mask;
                    match parse_all(flipped, bytes.len()) {
                        Parsed::Garbage(e) => assert_eq!(e.code, ErrorCode::Malformed),
                        Parsed::Incomplete | Parsed::Oversized(_) => assert!(at < 4),
                        Parsed::Frame(_) => {}
                    }
                }
            }
        }
    }
}

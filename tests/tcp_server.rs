//! The TCP front-end, proven equivalent to the in-process transports.
//!
//! What must hold over a real socket, not just an `Arc`:
//!
//! 1. **Parity** — register/search/admin through [`TcpWire`] produce
//!    bit-identical replies to [`InProcess`] against the same platform,
//!    for both the central and the sharded deployment.
//! 2. **Framing robustness** — partial writes reassemble, oversized
//!    frames are rejected with a typed error and a closed connection,
//!    garbage inside a valid frame (a document nested past the parser's
//!    depth limit, or a frame in the older nested-string layout) gets a
//!    typed error without killing the connection.
//! 3. **No leaked work** — a client that disconnects mid-session gets its
//!    session cancelled; the scheduler's counters drain to zero.
//! 4. **Backpressure crosses the wire** — `Overloaded { retry_after_ms }`
//!    arrives typed, with its retry hint intact.
//! 5. **One connection, no ticks** — sequential searches reuse one pooled
//!    connection, a cancel from any thread crosses as a frame, and
//!    shutdown returns while clients hold connections open.
//! 6. **The binary is a real server** — boot `mileena-server`, use it,
//!    SIGKILL it, reboot on the same directory, get identical results;
//!    a polite shutdown exits 0.

use mileena::core::wire::{WireAdminRequest, WireRegisterRequest, WireSearchRequest};
use mileena::core::{
    AdminOp, CentralPlatform, ClientFrame, CoreError, ErrorCode, InProcess, LocalDataStore,
    PlatformConfig, PlatformService, SchedulerConfig, SearchReply, SearchRequestBuilder,
    ServerFrame, ShardedPlatform, TcpServer, TcpServerConfig, TcpWire, WIRE_VERSION,
};
use mileena::datagen::{generate_corpus, CorpusConfig, NycCorpus};
use mileena::search::{SearchConfig, SketchedRequest, StopReason, TaskSpec};
use mileena::storage::{FaultKind, FaultPlan, FaultSite};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn corpus() -> NycCorpus {
    generate_corpus(&CorpusConfig {
        num_datasets: 10,
        num_signal: 2,
        num_union: 1,
        num_novelty_traps: 1,
        train_rows: 150,
        test_rows: 150,
        provider_rows: 100,
        key_domain: 40,
        signal_rows_per_key: 1,
        noise: 0.1,
        nonlinear_strength: 0.0,
        seed: 2024,
    })
}

fn sketched(c: &NycCorpus, requester: &str) -> SketchedRequest {
    SearchRequestBuilder::new(c.train.clone(), c.test.clone())
        .task(TaskSpec::new("y", &["base_x"]))
        .key_columns(&["zone"])
        .requester(requester)
        .sketch()
        .unwrap()
}

fn serve(c: &NycCorpus, service: &dyn PlatformService) {
    for p in &c.providers {
        service.register(LocalDataStore::new(p.clone()).prepare_upload(None, 5).unwrap()).unwrap();
    }
}

fn assert_replies_identical(a: &SearchReply, b: &SearchReply, tag: &str) {
    assert_eq!(a.base_score, b.base_score, "{tag}: base score");
    assert_eq!(a.final_score, b.final_score, "{tag}: final score");
    assert_eq!(a.selected_joins(), b.selected_joins(), "{tag}: joins");
    assert_eq!(a.selected_unions(), b.selected_unions(), "{tag}: unions");
    assert_eq!(a.model, b.model, "{tag}: model");
    assert_eq!(a.stop_reason, b.stop_reason, "{tag}: stop reason");
}

/// Frame a client message the way the protocol does: 4-byte BE length,
/// then the JSON payload.
fn frame_bytes(frame: &ClientFrame) -> Vec<u8> {
    let payload = serde_json::to_string(frame).unwrap().into_bytes();
    let mut buf = (payload.len() as u32).to_be_bytes().to_vec();
    buf.extend_from_slice(&payload);
    buf
}

/// Blocking read of one server frame off a raw socket.
fn read_server_frame(stream: &mut TcpStream) -> Option<ServerFrame> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).ok()?;
    let len = u32::from_be_bytes(len_buf) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).ok()?;
    serde_json::from_str(std::str::from_utf8(&payload).ok()?).ok()
}

fn stats_admin_frame() -> ClientFrame {
    ClientFrame::Admin(WireAdminRequest { v: WIRE_VERSION, op: AdminOp::Stats })
}

#[test]
fn tcp_transport_matches_in_process_for_central_and_sharded() {
    let c = corpus();
    // Central deployment behind a socket.
    let central = Arc::new(CentralPlatform::new(PlatformConfig::default()));
    let server = TcpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&central) as Arc<dyn PlatformService + Send + Sync>,
        TcpServerConfig::default(),
    )
    .unwrap();
    let client = TcpWire::connect(server.local_addr()).unwrap();
    serve(&c, &client);
    assert_eq!(central.num_datasets(), c.providers.len(), "registrations land on the platform");

    let direct = InProcess::new(Arc::clone(&central)).search(sketched(&c, "direct"), None).unwrap();
    let via_tcp = client.search(sketched(&c, "tcp"), None).unwrap();
    assert_replies_identical(&direct, &via_tcp, "central over tcp");
    assert!(!via_tcp.selected_joins().is_empty() || !via_tcp.selected_unions().is_empty());

    // Session events stream over the socket too.
    let session = client.submit(sketched(&c, "events"), None).unwrap();
    let mut events = 0;
    let reply = session
        .wait_with(|_| {
            events += 1;
        })
        .unwrap();
    assert!(events > 0, "events must stream over tcp");
    assert_replies_identical(&direct, &reply, "streamed session");

    // Admin over the socket.
    let stats = client.stats().unwrap();
    assert_eq!(stats.datasets, c.providers.len());
    assert!(stats.shards.is_none());
    server.shutdown();

    // Sharded deployment behind the same protocol: identical replies, and
    // the shard report crosses the wire.
    let sharded =
        Arc::new(ShardedPlatform::new(PlatformConfig { shards: 3, ..Default::default() }));
    let server = TcpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&sharded) as Arc<dyn PlatformService + Send + Sync>,
        TcpServerConfig::default(),
    )
    .unwrap();
    let client = TcpWire::connect(server.local_addr()).unwrap();
    serve(&c, &client);
    let via_sharded_tcp = client.search(sketched(&c, "tcp-sharded"), None).unwrap();
    assert_replies_identical(&direct, &via_sharded_tcp, "sharded over tcp");
    let report = client.stats().unwrap().shards.expect("shard report must cross the wire");
    assert_eq!(report.shards, 3);
    assert_eq!(report.datasets_per_shard.iter().sum::<usize>(), c.providers.len());
    assert!(report.scatter_rounds > 0);
    server.shutdown();
}

#[test]
fn partial_writes_reassemble_into_frames() {
    let platform = Arc::new(CentralPlatform::new(PlatformConfig::default()));
    let server = TcpServer::bind(
        "127.0.0.1:0",
        platform as Arc<dyn PlatformService + Send + Sync>,
        TcpServerConfig::default(),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    // Dribble one valid Admin frame across many tiny writes with pauses —
    // the server must buffer until the frame completes, not mis-parse.
    let bytes = frame_bytes(&stats_admin_frame());
    for chunk in bytes.chunks(3) {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    match read_server_frame(&mut stream) {
        Some(ServerFrame::AdminReply(response)) => assert!(response.ok.is_some()),
        other => panic!("expected a Reply to the dribbled frame, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn oversized_frames_get_typed_rejection_and_close() {
    let platform = Arc::new(CentralPlatform::new(PlatformConfig::default()));
    let config = TcpServerConfig { max_frame: 4096, ..Default::default() };
    let server =
        TcpServer::bind("127.0.0.1:0", platform as Arc<dyn PlatformService + Send + Sync>, config)
            .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    // Announce a frame far beyond the limit. The server answers with a
    // typed error and hangs up — it never tries to buffer the payload.
    stream.write_all(&(64u32 << 20).to_be_bytes()).unwrap();
    stream.flush().unwrap();
    match read_server_frame(&mut stream) {
        Some(ServerFrame::Error(error)) => {
            assert_eq!(error.code, ErrorCode::Malformed, "typed code expected, got: {error:?}");
            assert!(
                error.message.contains("exceeds"),
                "message should explain the limit: {error:?}"
            );
        }
        other => panic!("expected a typed Error frame, got {other:?}"),
    }
    // Connection closed: the next read hits EOF.
    let mut rest = Vec::new();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(stream.read_to_end(&mut rest).unwrap_or(0), 0, "server must close after oversize");

    // Garbage inside a well-formed frame: typed error, connection lives.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let garbage = b"!!not json!!";
    let mut bytes = (garbage.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(garbage);
    stream.write_all(&bytes).unwrap();
    match read_server_frame(&mut stream) {
        Some(ServerFrame::Error(error)) => assert_eq!(error.code, ErrorCode::Malformed),
        other => panic!("expected a typed Error frame, got {other:?}"),
    }
    stream.write_all(&frame_bytes(&stats_admin_frame())).unwrap();
    assert!(
        matches!(read_server_frame(&mut stream), Some(ServerFrame::AdminReply(_))),
        "connection must survive a garbage frame"
    );
    server.shutdown();
}

#[test]
fn client_disconnect_cancels_the_session() {
    let c = corpus();
    // A stalled worker keeps the session in flight long enough for the
    // disconnect to land first.
    let plan = Arc::new(FaultPlan::new(7).with(
        FaultSite::Worker,
        FaultKind::Latency(Duration::from_millis(300)),
        1000,
    ));
    plan.arm();
    let platform = Arc::new(CentralPlatform::new(PlatformConfig {
        scheduler: SchedulerConfig {
            workers: Some(1),
            queue_depth: 4,
            faults: Some(Arc::clone(&plan)),
        },
        ..Default::default()
    }));
    serve(&c, &InProcess::new(Arc::clone(&platform)));
    let server = TcpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&platform) as Arc<dyn PlatformService + Send + Sync>,
        TcpServerConfig::default(),
    )
    .unwrap();

    let submit = ClientFrame::Submit(WireSearchRequest {
        v: WIRE_VERSION,
        request: sketched(&c, "quitter"),
        config: None,
        request_id: None,
    });
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(&frame_bytes(&submit)).unwrap();
    match read_server_frame(&mut stream) {
        Some(ServerFrame::Accepted { session }) => assert!(session > 0),
        other => panic!("expected acceptance, got {other:?}"),
    }
    // Hang up mid-session while the worker is still stalled.
    drop(stream);

    // No leaked worker: the slot drains and the session is recorded as
    // cancelled, not as a full run.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let stats = platform.stats().unwrap();
        if platform.active_sessions() == 0 && stats.scheduler.completed >= 1 {
            assert_eq!(stats.scheduler.queued, 0);
            assert!(
                stats.scheduler.stops.cancelled >= 1,
                "disconnect must cancel the in-flight session: {:?}",
                stats.scheduler.stops
            );
            break;
        }
        assert!(Instant::now() < deadline, "session slot leaked after client disconnect");
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

#[test]
fn overload_shedding_round_trips_over_tcp() {
    let c = corpus();
    let plan = Arc::new(FaultPlan::new(11).with(
        FaultSite::Worker,
        FaultKind::Latency(Duration::from_millis(300)),
        1000,
    ));
    plan.arm();
    let platform = Arc::new(CentralPlatform::new(PlatformConfig {
        scheduler: SchedulerConfig {
            workers: Some(1),
            queue_depth: 1,
            faults: Some(Arc::clone(&plan)),
        },
        ..Default::default()
    }));
    serve(&c, &InProcess::new(Arc::clone(&platform)));
    let server = TcpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&platform) as Arc<dyn PlatformService + Send + Sync>,
        TcpServerConfig::default(),
    )
    .unwrap();
    let client = TcpWire::connect(server.local_addr()).unwrap();

    // One session stalls the worker, one fills the queue; the third must
    // bounce with the typed overload error, retry hint intact.
    let s1 = client.submit(sketched(&c, "a"), None).unwrap();
    let s2 = client.submit(sketched(&c, "b"), None).unwrap();
    let mut saw_overload = false;
    for _ in 0..20 {
        match client.submit(sketched(&c, "c"), None) {
            Err(CoreError::Overloaded { queue_depth, retry_after_ms }) => {
                assert_eq!(queue_depth, 1);
                assert!(retry_after_ms > 0, "retry hint must survive the wire");
                saw_overload = true;
                break;
            }
            Ok(extra) => {
                // Raced a drained queue; absorb and try again.
                let _ = extra.wait();
            }
            Err(other) => panic!("expected Overloaded, got {other:?}"),
        }
    }
    assert!(saw_overload, "queue_depth=1 under a stalled worker must shed");
    s1.wait().unwrap();
    s2.wait().unwrap();
    server.shutdown();
    assert_eq!(platform.active_sessions(), 0);
}

#[test]
fn degraded_search_labels_survive_tcp() {
    let c = corpus();
    let sharded =
        Arc::new(ShardedPlatform::new(PlatformConfig { shards: 3, ..Default::default() }));
    let server = TcpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&sharded) as Arc<dyn PlatformService + Send + Sync>,
        TcpServerConfig::default(),
    )
    .unwrap();
    let client = TcpWire::connect(server.local_addr()).unwrap();
    serve(&c, &client);

    let full = client.search(sketched(&c, "full"), None).unwrap();
    assert!(!full.degraded, "full-strength replies are unlabeled");
    assert!(full.shards_missing.is_empty());

    sharded.set_shard_available(2, false);
    // Fail-fast default: the typed error crosses the socket with its
    // shard index.
    match client.search(sketched(&c, "strict"), None) {
        Err(CoreError::ShardUnavailable { shard: 2 }) => {}
        other => panic!("expected typed ShardUnavailable over tcp, got {other:?}"),
    }
    // Degraded opt-in: the reply crosses labeled, missing list exact.
    let reply = client
        .search(
            sketched(&c, "degraded"),
            Some(SearchConfig { degraded_ok: true, ..Default::default() }),
        )
        .unwrap();
    assert!(reply.degraded, "partial scatter must label the reply on the wire");
    assert_eq!(reply.shards_missing, vec![2]);
    server.shutdown();
}

#[test]
fn pooled_connection_survives_server_restart() {
    let platform = Arc::new(CentralPlatform::new(PlatformConfig::default()));
    let server = TcpServer::bind(
        "127.0.0.1:0",
        platform as Arc<dyn PlatformService + Send + Sync>,
        TcpServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();
    let client = TcpWire::connect(addr).unwrap();
    assert!(client.stats().is_ok(), "first call seeds the pool");
    server.shutdown();

    // Restart on the same port: every stream in the client's pool is now
    // dead. The next call must discard the stale stream and redial, not
    // surface a transport error.
    let platform = Arc::new(CentralPlatform::new(PlatformConfig::default()));
    let server = TcpServer::bind(
        addr,
        platform as Arc<dyn PlatformService + Send + Sync>,
        TcpServerConfig::default(),
    )
    .unwrap();
    let stats = client
        .stats()
        .expect("a stale pooled connection must be dropped and redialed, not poison the client");
    assert_eq!(stats.datasets, 0, "the reply comes from the fresh server");
    server.shutdown();
}

/// A central platform holding the test corpus behind a single worker that
/// `plan` can stall, served over TCP.
fn stallable_server(c: &NycCorpus, plan: &Arc<FaultPlan>) -> (Arc<CentralPlatform>, TcpServer) {
    let platform = Arc::new(CentralPlatform::new(PlatformConfig {
        scheduler: SchedulerConfig {
            workers: Some(1),
            queue_depth: 4,
            faults: Some(Arc::clone(plan)),
        },
        ..Default::default()
    }));
    serve(c, &InProcess::new(Arc::clone(&platform)));
    let server = TcpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&platform) as Arc<dyn PlatformService + Send + Sync>,
        TcpServerConfig::default(),
    )
    .unwrap();
    (platform, server)
}

#[test]
fn sequential_searches_reuse_one_pooled_connection() {
    let c = corpus();
    let platform = Arc::new(CentralPlatform::new(PlatformConfig::default()));
    serve(&c, &InProcess::new(Arc::clone(&platform)));
    let server = TcpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&platform) as Arc<dyn PlatformService + Send + Sync>,
        TcpServerConfig::default(),
    )
    .unwrap();
    let client = TcpWire::connect(server.local_addr()).unwrap();
    let reference = client.search(sketched(&c, "warm"), None).unwrap();

    let connections = || platform.metrics().counter("net_connections").unwrap();
    let before = connections();
    for i in 0..20 {
        let reply = client.search(sketched(&c, &format!("seq-{i}")), None).unwrap();
        assert_replies_identical(&reference, &reply, "reused connection");
    }
    let dialed = connections() - before;
    assert!(dialed <= 1, "20 sequential searches accepted {dialed} new connections");
    server.shutdown();
}

#[test]
fn cancel_from_another_thread_crosses_the_wire() {
    let c = corpus();
    let stall = Duration::from_secs(10);
    let plan = Arc::new(FaultPlan::new(7).with(FaultSite::Worker, FaultKind::Latency(stall), 1000));
    plan.arm();
    let (platform, server) = stallable_server(&c, &plan);
    let client = TcpWire::connect(server.local_addr()).unwrap();

    let started = Instant::now();
    let session = client.submit(sketched(&c, "changed-my-mind"), None).unwrap();
    let control = session.control().clone();
    let canceller = std::thread::spawn(move || {
        // Give the waiting thread time to block in its read.
        std::thread::sleep(Duration::from_millis(100));
        control.cancel();
    });
    let reply = session.wait().unwrap();
    let waited = started.elapsed();
    canceller.join().unwrap();

    assert_eq!(reply.stop_reason, StopReason::Cancelled);
    assert!(reply.steps.is_empty());
    assert!(waited < stall / 4, "the cancel must cut the {stall:?} stall short, took {waited:?}");
    let stats = platform.stats().unwrap();
    assert_eq!(stats.scheduler.stops.cancelled, 1, "{:?}", stats.scheduler.stops);
    assert_eq!(platform.active_sessions(), 0);
    server.shutdown();
}

#[test]
fn shutdown_returns_with_open_connections_and_flushes_the_search_in_flight() {
    let c = corpus();
    let plan = Arc::new(FaultPlan::new(5).with(
        FaultSite::Worker,
        FaultKind::Latency(Duration::from_millis(500)),
        1000,
    ));
    let (_platform, server) = stallable_server(&c, &plan);
    let client = TcpWire::connect(server.local_addr()).unwrap();

    // Three overlapping searches leave three connections idle in the pool.
    let warm: Vec<_> =
        (0..3).map(|i| client.submit(sketched(&c, &format!("warm-{i}")), None).unwrap()).collect();
    let reference = warm.into_iter().map(|s| s.wait().unwrap()).next_back().unwrap();

    // One search stalls on the worker while the server shuts down.
    plan.arm();
    let in_flight = client.submit(sketched(&c, "in-flight"), None).unwrap();
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "shutdown must not wait on clients holding idle connections"
    );
    let reply = in_flight.wait().expect("the in-flight result must reach the client");
    assert_replies_identical(&reference, &reply, "search drained through shutdown");
}

#[test]
fn half_closed_connection_is_closed_once_served() {
    let platform = Arc::new(CentralPlatform::new(PlatformConfig::default()));
    let server = TcpServer::bind(
        "127.0.0.1:0",
        platform as Arc<dyn PlatformService + Send + Sync>,
        TcpServerConfig::default(),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(&frame_bytes(&stats_admin_frame())).unwrap();
    assert!(matches!(read_server_frame(&mut stream), Some(ServerFrame::AdminReply(_))));

    // A proxy passes a client's half-close on like this, then waits for
    // the server to close its end before it lets go of either socket.
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut rest = Vec::new();
    let closed = stream.read_to_end(&mut rest).map_err(|e| e.kind());
    assert_eq!(closed, Ok(0), "the server must close a connection its client has finished with");
    server.shutdown();
}

#[test]
fn wrong_version_is_rejected_over_tcp() {
    let platform = Arc::new(CentralPlatform::new(PlatformConfig::default()));
    let server = TcpServer::bind(
        "127.0.0.1:0",
        platform as Arc<dyn PlatformService + Send + Sync>,
        TcpServerConfig::default(),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let frame = ClientFrame::Admin(WireAdminRequest { v: 99, op: AdminOp::Stats });
    stream.write_all(&frame_bytes(&frame)).unwrap();
    match read_server_frame(&mut stream) {
        Some(ServerFrame::AdminReply(response)) => {
            let code = response.err.map(|e| e.code);
            assert_eq!(code, Some(ErrorCode::UnsupportedVersion), "got: {code:?}")
        }
        other => panic!("expected a Reply envelope, got {other:?}"),
    }
    server.shutdown();
}

/// Send `payload` as one raw frame: it must draw a typed `Malformed` error
/// frame, and the same connection must then answer a `Stats` call.
fn assert_refused_and_served_on(payload: &[u8]) {
    let platform = Arc::new(CentralPlatform::new(PlatformConfig::default()));
    let server = TcpServer::bind(
        "127.0.0.1:0",
        platform as Arc<dyn PlatformService + Send + Sync>,
        TcpServerConfig::default(),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(payload);
    stream.write_all(&bytes).unwrap();
    match read_server_frame(&mut stream) {
        Some(ServerFrame::Error(error)) => assert_eq!(error.code, ErrorCode::Malformed),
        other => panic!("expected a typed Error frame, got {other:?}"),
    }
    stream.write_all(&frame_bytes(&stats_admin_frame())).unwrap();
    match read_server_frame(&mut stream) {
        Some(ServerFrame::AdminReply(response)) => assert!(response.ok.is_some()),
        other => panic!("the connection must keep serving, got {other:?}"),
    }
    server.shutdown();
}

/// Ten thousand nested arrays are a 10 kB frame, far under `max_frame`.
/// Parsed without a depth limit, they overflow the connection thread's
/// stack and abort the whole server.
#[test]
fn deeply_nested_frame_is_refused_typed_and_the_connection_serves_on() {
    assert_refused_and_served_on(&[b'['; 10_000]);
}

/// A frame in the older layout, which nested each envelope as a JSON
/// string inside the frame, is not decoded a second way: it is refused.
#[test]
fn nested_string_layout_frame_is_refused_typed() {
    let upload =
        LocalDataStore::new(corpus().providers[0].clone()).prepare_upload(None, 5).unwrap();
    let envelope = serde_json::to_string(&WireRegisterRequest { v: WIRE_VERSION, upload }).unwrap();
    let quoted = serde_json::to_string(&envelope).unwrap();
    assert_refused_and_served_on(format!("{{\"Register\":{{\"json\":{quoted}}}}}").as_bytes());
}

/// How deep arrays and objects nest in a JSON document.
fn nesting_depth(json: &str) -> usize {
    let (mut depth, mut deepest, mut in_string, mut escaped) = (0usize, 0, false, false);
    for b in json.bytes() {
        match (in_string, escaped, b) {
            (true, true, _) => escaped = false,
            (true, false, b'\\') => escaped = true,
            (true, false, b'"') | (false, _, b'"') => in_string = !in_string,
            (false, _, b'[' | b'{') => {
                depth += 1;
                deepest = deepest.max(depth);
            }
            (false, _, b']' | b'}') => depth -= 1,
            _ => {}
        }
    }
    deepest
}

/// The JSON parser refuses nesting past `serde_json::MAX_DEPTH`; the
/// deepest real frame of a paper-scale corpus must sit well under it:
/// every register, a submit, its result, and the admin replies.
#[test]
fn real_frames_nest_well_under_the_depth_limit() {
    let c = generate_corpus(&CorpusConfig { num_datasets: 40, ..CorpusConfig::paper_scale(1) });
    let platform = Arc::new(CentralPlatform::new(PlatformConfig::default()));
    let mut deepest = 0;
    let mut measure = |json: Result<String, serde_json::Error>| {
        deepest = deepest.max(nesting_depth(&json.unwrap()));
    };
    for p in &c.providers {
        let upload = LocalDataStore::new(p.clone()).prepare_upload(None, 5).unwrap();
        platform.register(upload.clone()).unwrap();
        let frame = ClientFrame::Register(WireRegisterRequest { v: WIRE_VERSION, upload });
        measure(serde_json::to_string(&frame));
    }
    let request = sketched(&c, "depth");
    let submit = WireSearchRequest { v: WIRE_VERSION, request, config: None, request_id: None };
    let session = mileena::core::wire_submit(&*platform, submit.clone()).unwrap();
    measure(serde_json::to_string(&ClientFrame::Submit(submit)));
    let response = session.finish();
    measure(serde_json::to_string(&ServerFrame::Result { session: session.id, response }));
    for op in [AdminOp::Stats, AdminOp::Metrics] {
        let response =
            mileena::core::wire_admin(&*platform, WireAdminRequest { v: WIRE_VERSION, op });
        measure(serde_json::to_string(&ServerFrame::AdminReply(response)));
    }
    assert_eq!(nesting_depth("{\"a\":[1,{\"b\":\"[{\\\"\"}]}"), 3, "the measure itself");
    assert!(
        deepest * 4 <= serde_json::MAX_DEPTH,
        "a real frame nests {deepest} deep, against a limit of {}",
        serde_json::MAX_DEPTH
    );
}

/// Blocking read of the next stdout line from the server child.
fn read_stdout_line(child: &mut std::process::Child) -> String {
    let mut line = String::new();
    let stdout = child.stdout.as_mut().unwrap();
    let mut byte = [0u8; 1];
    while stdout.read_exact(&mut byte).is_ok() {
        if byte[0] == b'\n' {
            break;
        }
        line.push(byte[0] as char);
    }
    line
}

/// Send a control line to the server's stdin and wait for its stdout ack
/// (the chaos commands echo themselves back).
fn server_command(child: &mut std::process::Child, cmd: &str) {
    let stdin = child.stdin.as_mut().unwrap();
    stdin.write_all(cmd.as_bytes()).unwrap();
    stdin.write_all(b"\n").unwrap();
    stdin.flush().unwrap();
    let ack = read_stdout_line(child);
    assert_eq!(ack.trim(), cmd, "server must ack the control line");
}

/// Boot the real `mileena-server` binary with extra flags and environment
/// overrides, returning (child, address).
fn spawn_server_env(
    dir: &std::path::Path,
    extra: &[&str],
    envs: &[(&str, &str)],
) -> (std::process::Child, String) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_mileena-server"))
        .args(["--addr", "127.0.0.1:0", "--dir"])
        .arg(dir)
        .args(extra)
        .envs(envs.iter().copied())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .expect("spawn mileena-server");
    // First stdout line: "listening on <addr>".
    let line = read_stdout_line(&mut child);
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .trim()
        .to_string();
    (child, addr)
}

/// Boot the real `mileena-server` binary with extra flags and return
/// (child, address).
fn spawn_server_args(dir: &std::path::Path, extra: &[&str]) -> (std::process::Child, String) {
    spawn_server_env(dir, extra, &[])
}

/// Boot the real `mileena-server` binary and return (child, address).
fn spawn_server(dir: &std::path::Path) -> (std::process::Child, String) {
    spawn_server_args(dir, &[])
}

/// Ask the server for its metrics dump (stdin `metrics` command) and read
/// one metric's value off the Prometheus-style text.
fn scrape_metric(child: &mut std::process::Child, name: &str) -> i64 {
    let stdin = child.stdin.as_mut().unwrap();
    stdin.write_all(b"metrics\n").unwrap();
    stdin.flush().unwrap();
    let mut value = None;
    loop {
        let line = read_stdout_line(child);
        if line.trim() == "# EOF" {
            break;
        }
        if let Some(rest) = line.strip_prefix(name) {
            if let Ok(v) = rest.trim().parse() {
                value = Some(v);
            }
        }
    }
    value.unwrap_or_else(|| panic!("metric {name} not in dump"))
}

#[test]
fn server_binary_survives_kill_and_recovers_bit_identically() {
    let c = corpus();
    let dir = std::env::temp_dir().join(format!("mileena-server-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Boot, populate, search, then SIGKILL mid-flight (no checkpoint).
    let (mut child, addr) = spawn_server(&dir);
    let client = TcpWire::connect(addr.as_str()).unwrap();
    serve(&c, &client);
    let before = client.search(sketched(&c, "before"), None).unwrap();
    child.kill().unwrap();
    child.wait().unwrap();

    // Reboot on the same directory: the WAL replays, and the same search
    // gives the same answer through the same binary. Graceful shutdown
    // then writes the (binary, lazily-hydratable) snapshot.
    let (mut child, addr) = spawn_server(&dir);
    let client = TcpWire::connect(addr.as_str()).unwrap();
    assert_eq!(client.stats().unwrap().datasets, c.providers.len());
    let after = client.search(sketched(&c, "after"), None).unwrap();
    assert_replies_identical(&before, &after, "kill/reopen through the binary");
    child.stdin.as_mut().unwrap().write_all(b"shutdown\n").unwrap();
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success(), "graceful shutdown must exit 0: {:?}", output.status);

    // Reboot from that snapshot with the background hydrator held off:
    // the server must answer the same search correctly *before* full
    // hydration completes — only the sketches the search touches hydrate.
    let (mut child, addr) = spawn_server_env(&dir, &[], &[("MILEENA_NO_BG_HYDRATION", "1")]);
    let client = TcpWire::connect(addr.as_str()).unwrap();
    assert_eq!(client.stats().unwrap().datasets, c.providers.len());
    let unhydrated = scrape_metric(&mut child, "mileena_datasets_unhydrated");
    assert_eq!(
        unhydrated,
        c.providers.len() as i64,
        "every sketch must still be cold before the first search"
    );
    let lazy = client.search(sketched(&c, "lazy"), None).unwrap();
    assert_replies_identical(&before, &lazy, "search before full hydration");
    let touched = scrape_metric(&mut child, "mileena_hydrations_lazy");
    assert!(touched > 0, "the search must have hydrated sketches on demand");

    // Polite shutdown: drains, checkpoints, exits 0.
    child.stdin.as_mut().unwrap().write_all(b"shutdown\n").unwrap();
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success(), "graceful shutdown must exit 0: {:?}", output.status);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("shutdown complete"), "got: {stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn server_binary_shard_kill_drill_degrades_then_recovers() {
    let c = corpus();
    let dir = std::env::temp_dir().join(format!("mileena-server-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A 3-shard durable deployment with a deterministic shard-kill plan:
    // every shard call crashes while the plan is armed.
    let (mut child, addr) =
        spawn_server_args(&dir, &["--shards", "3", "--chaos-shard-permille", "1000"]);
    let client = TcpWire::connect(addr.as_str()).unwrap();
    serve(&c, &client);

    // Calm reference first: the plan arms at boot, so disarm before taking
    // the baseline the recovered platform must reproduce.
    server_command(&mut child, "chaos off");
    let reference = client.search(sketched(&c, "reference"), None).unwrap();
    assert!(!reference.degraded, "calm search must be unlabeled");

    // Storm on. Fail-fast searches must surface the typed shard error
    // across the socket — never a silently partial reply.
    server_command(&mut child, "chaos on");
    match client.search(sketched(&c, "strict"), None) {
        Err(CoreError::ShardUnavailable { shard }) => assert!(shard < 3),
        other => panic!("strict search under shard faults must fail typed, got {other:?}"),
    }
    // Opt-in degraded search answers from the surviving subset, labeled.
    let degraded = client
        .search(
            sketched(&c, "degraded"),
            Some(SearchConfig { degraded_ok: true, ..Default::default() }),
        )
        .unwrap();
    assert!(degraded.degraded, "partial scatter must label itself during the drill");
    assert!(!degraded.shards_missing.is_empty(), "degraded reply must name missing shards");
    assert!(degraded.shards_missing.iter().all(|&s| (s as usize) < 3));

    // Storm off: the submit gate reopens quarantined shards from their own
    // WAL directories, and a strict search serves complete results again,
    // bit-identical to the pre-storm baseline.
    server_command(&mut child, "chaos off");
    let healed = client.search(sketched(&c, "healed"), None).unwrap();
    assert!(!healed.degraded, "recovered platform must serve complete results");
    assert!(healed.shards_missing.is_empty());
    assert_replies_identical(&reference, &healed, "post-drill recovery");

    child.stdin.as_mut().unwrap().write_all(b"shutdown\n").unwrap();
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success(), "drill shutdown must exit 0: {:?}", output.status);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What a server saw before a corpus arrived must not reach the last bit of
/// a reply over that corpus: scores are a function of corpus and request.
/// One server first runs a search whose requester keys span a wide zone
/// domain; another starts cold. Both then take the same corpus and the
/// same request.
#[test]
fn replies_are_bit_equal_whatever_the_server_saw_first() {
    let c = generate_corpus(&CorpusConfig { num_datasets: 40, ..CorpusConfig::paper_scale(1) });
    let wide = |name: &str, phase: f64| {
        let zones: Vec<i64> = (0..20_000).collect();
        let wave = |k: f64| zones.iter().map(|&z| (z as f64 * k + phase).sin()).collect::<Vec<_>>();
        mileena::relation::RelationBuilder::new(name)
            .int_col("zone", &zones)
            .float_col("base_x", &wave(0.37))
            .float_col("y", &wave(0.11))
            .build()
            .unwrap()
    };
    let warm_up = SearchRequestBuilder::new(wide("warm-train", 0.0), wide("warm-test", 1.0))
        .task(TaskSpec::new("y", &["base_x"]))
        .key_columns(&["zone"])
        .requester("warm-up")
        .sketch()
        .unwrap();

    let run = |tag: &str, warm: bool| {
        let dir = std::env::temp_dir().join(format!("mileena-key-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut child, addr) = spawn_server(&dir);
        let client = TcpWire::connect(addr.as_str()).unwrap();
        if warm {
            client.search(warm_up.clone(), None).unwrap();
        }
        serve(&c, &client);
        let reply = client.search(sketched(&c, tag), None).unwrap();
        child.stdin.as_mut().unwrap().write_all(b"shutdown\n").unwrap();
        assert!(child.wait().unwrap().success(), "{tag}: graceful shutdown");
        std::fs::remove_dir_all(&dir).unwrap();
        reply
    };
    let cold = run("cold", false);
    let warm = run("warm", true);
    assert!(!cold.steps.is_empty(), "the corpus must give the search something to commit");
    assert_replies_identical(&cold, &warm, "cold vs warmed-up server");
    let bits = |r: &SearchReply| {
        let steps = r.steps.iter().map(|s| s.score_after.to_bits());
        (r.final_score.to_bits(), steps.collect::<Vec<_>>())
    };
    assert_eq!(bits(&cold), bits(&warm), "final and per-step scores, bit for bit");
}

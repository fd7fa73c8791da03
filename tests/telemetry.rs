//! End-to-end telemetry: the metrics registry, span breakdowns, and the
//! slow-search log, exercised across every deployment shape.
//!
//! What must hold:
//!
//! 1. **Metrics cross the wire** — `AdminOp::Metrics` round-trips through
//!    both transports (in-memory JSON wire and real TCP), for the central
//!    and the sharded deployment, with the same numbers the platform holds.
//! 2. **Counters reconcile exactly** — N concurrent searches through the
//!    worker pool lose no updates: per-reply counts sum to the registry's
//!    cumulative counters and to `stats()`.
//! 3. **Span breakdowns add up** — a TCP search's per-stage timings sum
//!    to its own total wall clock within tolerance, and the wire
//!    `request_id` comes back on the reply.
//!    Inside the run stage, cache build + round scoring + bound refresh
//!    cover the loop's wall clock (no dark stage).
//! 4. **The binary serves telemetry** — `mileena-server` answers the
//!    stdin `metrics` command with a Prometheus-style dump carrying
//!    non-zero core series, and its slow-search log records the wire
//!    `request_id` of an offending search.

use mileena::core::{
    CentralPlatform, InProcess, JsonWire, LocalDataStore, PlatformConfig, PlatformService,
    SchedulerConfig, SearchRequestBuilder, ShardedPlatform, TcpServer, TcpServerConfig, TcpWire,
};
use mileena::datagen::{generate_corpus, CorpusConfig, NycCorpus};
use mileena::search::{SketchedRequest, TaskSpec};
use std::io::{BufRead, BufReader, Write};
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
        seed: 909,
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

/// The scheduler records its run-time histogram *after* delivering the
/// reply, so a caller whose `wait()` just returned can snapshot metrics a
/// beat too early. Poll until the named histogram reaches `count`.
fn settle(service: &dyn PlatformService, histogram: &str, count: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let report = service.metrics().unwrap();
        let now = report.histogram(histogram).map_or(0, |h| h.summary.count);
        if now >= count {
            return;
        }
        assert!(Instant::now() < deadline, "{histogram} stuck at {now}, want {count}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn metrics_round_trip_over_json_wire() {
    let c = corpus();
    let platform = Arc::new(CentralPlatform::new(PlatformConfig::default()));
    let in_process = InProcess::new(Arc::clone(&platform));
    let wire = JsonWire::new(Arc::clone(&platform));
    serve(&c, &in_process);

    let reply = wire.search(sketched(&c, "metrics"), None).unwrap();
    settle(&in_process, "scheduler_run_ns", 1);
    let direct = in_process.metrics().unwrap();
    let via_wire = wire.metrics().unwrap();
    assert_eq!(direct, via_wire, "metrics must round-trip bit-identically");

    assert_eq!(via_wire.counter("searches_started"), Some(1));
    assert_eq!(via_wire.counter("searches_completed"), Some(1));
    assert_eq!(via_wire.counter("search_evaluations"), Some(reply.evaluations as u64));
    assert_eq!(via_wire.counter("search_bound_skips"), Some(reply.bound_skips as u64));
    let total = via_wire.histogram("search_total_ns").expect("search_total histogram");
    assert_eq!(total.summary.count, 1);
    assert!(total.summary.sum_ns > 0, "the search took nonzero time");
    // The scheduler's private histograms join the report at snapshot time.
    assert_eq!(via_wire.histogram("search_queue_wait_ns").unwrap().summary.count, 1);
    assert_eq!(via_wire.histogram("scheduler_run_ns").unwrap().summary.count, 1);
}

#[test]
fn metrics_round_trip_over_tcp_for_central_and_sharded() {
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
    client.search(sketched(&c, "tcp"), None).unwrap();
    let report = client.metrics().unwrap();
    assert_eq!(report.counter("searches_completed"), Some(1));
    assert_eq!(report.counter("requests_submit"), Some(1));
    assert!(report.counter("requests_register").unwrap() >= c.providers.len() as u64);
    assert!(report.counter("net_connections").unwrap() >= 1);
    assert!(report.counter("net_frames_in").unwrap() >= 2, "register + submit frames");
    assert!(report.counter("net_frames_out").unwrap() >= 2, "replies + events + result");
    server.shutdown();

    // Sharded deployment: the coordinator's report carries the scatter
    // stage histograms and merges the shard workers' registries.
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
    client.search(sketched(&c, "sharded"), None).unwrap();
    let report = client.metrics().unwrap();
    assert_eq!(report.counter("searches_completed"), Some(1));
    // One sample per shard visit; the pruning gate may skip shards whose
    // score ceiling cannot beat the incumbent, so the count is >= 1, not
    // shards x rounds.
    let gather = report.histogram("shard_gather_ns").expect("per-shard gather histogram");
    assert!(gather.summary.count >= 1, "scatter rounds must record gather samples");
    assert!(gather.summary.sum_ns > 0, "gather time is nonzero");
    assert_eq!(report.histogram("search_queue_wait_ns").unwrap().summary.count, 1);
    // The shard-gather summary also surfaces through the shard report.
    let stats = client.stats().unwrap();
    let shards = stats.shards.expect("sharded stats");
    assert_eq!(shards.gather.count, gather.summary.count);
    assert_eq!(shards.gather.max_ns, gather.summary.max_ns);
    server.shutdown();
}

#[test]
fn concurrent_searches_reconcile_counters_exactly() {
    let c = corpus();
    // A real worker pool (4 workers) so updates race: the point of the
    // test is that nothing is lost under concurrency.
    let platform = Arc::new(CentralPlatform::new(PlatformConfig {
        scheduler: SchedulerConfig { workers: Some(4), queue_depth: 64, faults: None },
        ..Default::default()
    }));
    let service = InProcess::new(Arc::clone(&platform));
    serve(&c, &service);

    let threads = 4;
    let per_thread = 3;
    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let service = service.clone();
                let c = &c;
                scope.spawn(move || {
                    (0..per_thread)
                        .map(|i| service.search(sketched(c, &format!("r{t}-{i}")), None).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });

    let total = (threads * per_thread) as u64;
    let eval_sum: u64 = replies.iter().map(|r| r.evaluations as u64).sum();
    let skip_sum: u64 = replies.iter().map(|r| r.bound_skips as u64).sum();
    settle(&service, "scheduler_run_ns", total);

    // Registry counters, the legacy stats() totals, and the per-stage
    // histograms must all agree with the per-reply ground truth.
    let report = platform.metrics();
    assert_eq!(report.counter("searches_started"), Some(total));
    assert_eq!(report.counter("searches_completed"), Some(total));
    assert_eq!(report.counter("search_evaluations"), Some(eval_sum));
    assert_eq!(report.counter("search_bound_skips"), Some(skip_sum));
    for name in ["search_total_ns", "search_prepare_ns", "search_enumerate_ns", "search_run_ns"] {
        assert_eq!(report.histogram(name).unwrap().summary.count, total, "{name} count");
    }
    assert_eq!(report.histogram("search_queue_wait_ns").unwrap().summary.count, total);

    let stats = platform.stats().unwrap();
    assert_eq!(stats.search_evaluations, eval_sum);
    assert_eq!(stats.search_bound_skips, skip_sum);
    assert_eq!(stats.scheduler.queue_wait.count, total);
    assert_eq!(stats.scheduler.run_time.count, total);
}

#[test]
fn tcp_span_breakdown_sums_to_total_and_echoes_request_id() {
    let c = corpus();
    let central: Arc<dyn PlatformService + Send + Sync> =
        Arc::new(CentralPlatform::new(PlatformConfig::default()));
    let sharded: Arc<dyn PlatformService + Send + Sync> =
        Arc::new(ShardedPlatform::new(PlatformConfig { shards: 3, ..Default::default() }));
    for (shape, platform) in [("central", central), ("3-shard", sharded)] {
        let server = TcpServer::bind("127.0.0.1:0", platform, TcpServerConfig::default()).unwrap();
        let client = TcpWire::connect(server.local_addr()).unwrap();
        serve(&c, &client);

        // The spans are wall-clock measurements, so judge the acceptance
        // bound (staged stages sum to within 5% of the search's own total)
        // on the best of a few runs — a noisy-neighbor scheduler blip
        // shouldn't flake the build, but a systematic accounting gap must.
        let mut best_ratio = 0.0f64;
        for attempt in 0..3 {
            let reply = client
                .submit_tagged(sketched(&c, "spans"), None, Some(100 + attempt))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(reply.request_id, Some(100 + attempt), "request id echo");
            let s = reply.spans;
            assert!(s.total_ns > 0, "total span measured");
            assert!(s.run_ns > 0, "run span measured");
            assert!(s.eval_ns > 0, "per-round eval time measured");
            assert!(s.eval_ns <= s.run_ns, "eval rounds nest inside the run span");
            assert!(
                s.staged_ns() <= s.total_ns + s.total_ns / 20,
                "stages cannot exceed the wall clock by more than 5%: {s:?}"
            );
            best_ratio = best_ratio.max(s.staged_ns() as f64 / s.total_ns as f64);
        }
        assert!(
            best_ratio >= 0.95,
            "{shape}: staged spans must cover >= 95% of the total wall clock, best was \
             {best_ratio:.3}"
        );
        server.shutdown();
    }
}

#[test]
fn run_span_is_covered_by_its_three_stages() {
    // No dark stage inside `run`: candidate projection + first bounds,
    // round scoring, and the post-join bound refresh account for the loop's
    // wall clock. What is left is one commit per round, so the corpus holds
    // enough candidates (~240) for per-candidate work to dwarf it: on the
    // 10-dataset `corpus()` two commits alone are ~15% of a 0.3 ms run.
    let c = generate_corpus(&CorpusConfig {
        num_datasets: 240,
        num_signal: 4,
        num_union: 2,
        num_novelty_traps: 4,
        train_rows: 300,
        test_rows: 300,
        provider_rows: 150,
        key_domain: 60,
        signal_rows_per_key: 1,
        noise: 0.1,
        nonlinear_strength: 0.0,
        seed: 909,
    });
    let platform = Arc::new(CentralPlatform::new(PlatformConfig::default()));
    let service = InProcess::new(Arc::clone(&platform));
    serve(&c, &service);
    let attempts = 5u64;
    let mut best_ratio = 0.0f64;
    for attempt in 0..attempts {
        let reply = service.search(sketched(&c, &format!("stages-{attempt}")), None).unwrap();
        let s = reply.spans;
        assert!(!reply.steps.is_empty(), "the fixed corpus commits at least one join");
        assert!(s.cache_build_ns > 0, "cache build measured: {s:?}");
        assert!(s.refresh_ns > 0, "a committed join pays a bound refresh: {s:?}");
        let staged = s.cache_build_ns + s.eval_ns + s.refresh_ns;
        assert!(staged <= s.run_ns, "the stages nest inside the run span: {s:?}");
        best_ratio = best_ratio.max(staged as f64 / s.run_ns as f64);
    }
    assert!(
        best_ratio >= 0.9,
        "cache_build + eval + refresh must cover >= 90% of run_ns, best was {best_ratio:.3}"
    );
    settle(&service, "scheduler_run_ns", attempts);
    let report = platform.metrics();
    let refresh = report.histogram("search_bound_refresh_ns").expect("refresh histogram");
    assert_eq!(refresh.summary.count, attempts, "one refresh sample per search");
    assert!(refresh.summary.sum_ns > 0);
}

/// Boot the real `mileena-server` binary with telemetry flags. Returns the
/// child, the bound address, and a reader over its stdout (positioned just
/// past the boot banner). Stderr — the slow-search log — goes to
/// `stderr_path`.
fn spawn_server_with_telemetry(
    stderr_path: &std::path::Path,
) -> (std::process::Child, String, BufReader<std::process::ChildStdout>) {
    let stderr = std::fs::File::create(stderr_path).unwrap();
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_mileena-server"))
        .args(["--addr", "127.0.0.1:0", "--slow-search-ms", "1"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::from(stderr))
        .spawn()
        .expect("spawn mileena-server");
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    reader.read_line(&mut banner).unwrap();
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_string();
    (child, addr, reader)
}

#[test]
fn server_binary_serves_metrics_dump_and_slow_search_log() {
    // A heavier corpus than the transport tests use, so the search's wall
    // clock clears the 1ms slow-search threshold even in release builds.
    let c = generate_corpus(&CorpusConfig {
        num_datasets: 40,
        num_signal: 6,
        num_union: 2,
        num_novelty_traps: 4,
        train_rows: 6000,
        test_rows: 3000,
        provider_rows: 4000,
        key_domain: 1000,
        signal_rows_per_key: 1,
        noise: 0.1,
        nonlinear_strength: 0.0,
        seed: 4242,
    });
    let stderr_path =
        std::env::temp_dir().join(format!("mileena-telemetry-stderr-{}.log", std::process::id()));
    let (mut child, addr, mut reader) = spawn_server_with_telemetry(&stderr_path);

    let client = TcpWire::connect(&*addr).unwrap();
    serve(&c, &client);
    let request_id = 0xBEEF_u64;
    let reply = client
        .submit_tagged(sketched(&c, "binary"), None, Some(request_id))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(reply.request_id, Some(request_id));
    assert!(
        reply.spans.total_ns > 1_000_000,
        "search must cross the 1ms slow threshold, took {}ns",
        reply.spans.total_ns
    );

    // On-demand metrics dump over stdin/stdout, terminated by "# EOF".
    let mut stdin = child.stdin.take().unwrap();
    writeln!(stdin, "metrics").unwrap();
    let mut dump = String::new();
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "stream ended before # EOF");
        if line.trim() == "# EOF" {
            break;
        }
        dump.push_str(&line);
    }
    assert!(dump.contains("mileena_searches_completed 1"), "dump:\n{dump}");
    assert!(dump.contains("mileena_requests_submit 1"), "dump:\n{dump}");
    assert!(dump.contains("mileena_search_total_seconds_count 1"), "dump:\n{dump}");
    assert!(dump.contains("mileena_slow_searches 1"), "1ms threshold catches the search:\n{dump}");

    // Graceful shutdown flushes the slow-search log.
    writeln!(stdin, "shutdown").unwrap();
    let status = child.wait().unwrap();
    assert!(status.success(), "server must exit 0, got {status:?}");

    let log = std::fs::read_to_string(&stderr_path).unwrap();
    let slow_line = log
        .lines()
        .find(|l| l.starts_with('{') && l.contains("\"request_id\":48879"))
        .unwrap_or_else(|| panic!("no slow-search record for request_id 48879 in:\n{log}"));
    assert!(slow_line.contains("\"total_ns\":"), "span breakdown in the record: {slow_line}");
    assert!(slow_line.contains("\"queue_wait_ns\":"), "queue wait in the record: {slow_line}");
    assert!(slow_line.contains("\"cache_build_ns\":"), "cache build in the record: {slow_line}");
    assert!(slow_line.contains("\"refresh_ns\":"), "bound refresh in the record: {slow_line}");
    println!("slow-search log correlated request_id={request_id}: {slow_line}");
    let _ = std::fs::remove_file(&stderr_path);
}

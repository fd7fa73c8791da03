//! `mileena-server` — the platform behind a real TCP socket.
//!
//! Boots a [`CentralPlatform`] (or, with `--shards` above 1, a
//! [`ShardedPlatform`]), optionally durable under `--dir`, and serves the
//! length-prefixed
//! JSON frame protocol of `mileena_core::net` until stdin closes or a
//! `shutdown` line arrives. Shutdown is graceful: the listener stops
//! accepting, in-flight sessions drain and flush their results, storage is
//! checkpointed, the slow-search log is flushed, and the process exits 0.
//!
//! ```text
//! mileena-server [--addr 127.0.0.1:0] [--dir PATH] [--shards N]
//!                [--queue-depth N] [--max-sessions N]
//!                [--slow-search-ms MS] [--metrics-interval SECS]
//! ```
//!
//! The bound address is printed to stdout as `listening on <addr>` (with
//! the OS-assigned port when `--addr` ends in `:0`), so harnesses can
//! parse it.
//!
//! **Telemetry surface.**
//!
//! - `--slow-search-ms MS` (default 500; 0 disables): searches whose total
//!   wall clock crossed the threshold emit one JSONL record to stderr with
//!   the session id, the wire `request_id`, and the full per-stage span
//!   breakdown.
//! - `--metrics-interval SECS` (default 0 = off): dump the Prometheus-style
//!   metrics text to stderr every SECS seconds.
//! - The stdin line `metrics` dumps the same text to stdout on demand,
//!   terminated by an `# EOF` line so harnesses know where it ends.
//!
//! **Chaos drill surface.** `--chaos-shard-permille P` arms a
//! deterministic shard-call fault plan (crash faults at P‰ per shard
//! call; seed from the first `MILEENA_CHAOS_SEEDS` entry, default 11) so
//! harnesses can rehearse shard loss against the real binary. The stdin
//! lines `chaos off` / `chaos on` disarm/re-arm the plan at runtime —
//! each is acknowledged on stdout (`chaos off` / `chaos on`) so scripts
//! can sequence the drill. Quarantined shards then heal through the
//! supervised-recovery path on the next strict search.

use mileena_core::{
    CentralPlatform, PlatformConfig, PlatformService, ShardedPlatform, StoragePolicy, TcpServer,
    TcpServerConfig,
};
use mileena_obs::{render_prometheus, SlowSearchLog};
use mileena_storage::{FaultKind, FaultPlan, FaultSite};
use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

struct Args {
    addr: String,
    dir: Option<std::path::PathBuf>,
    shards: usize,
    queue_depth: Option<usize>,
    max_sessions: Option<usize>,
    /// Slow-search threshold, milliseconds; 0 disables the log.
    slow_search_ms: u64,
    /// Periodic metrics-dump interval, seconds; 0 disables the dump.
    metrics_interval: u64,
    /// Shard-call crash-fault rate, permille; 0 disables the chaos plan.
    chaos_shard_permille: u16,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".to_string(),
        dir: None,
        shards: 1,
        queue_depth: None,
        max_sessions: None,
        slow_search_ms: 500,
        metrics_interval: 0,
        chaos_shard_permille: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--dir" => args.dir = Some(value("--dir")?.into()),
            "--shards" => {
                args.shards = value("--shards")?.parse().map_err(|e| format!("--shards: {e}"))?
            }
            "--queue-depth" => {
                args.queue_depth = Some(
                    value("--queue-depth")?.parse().map_err(|e| format!("--queue-depth: {e}"))?,
                )
            }
            "--max-sessions" => {
                args.max_sessions = Some(
                    value("--max-sessions")?.parse().map_err(|e| format!("--max-sessions: {e}"))?,
                )
            }
            "--slow-search-ms" => {
                args.slow_search_ms = value("--slow-search-ms")?
                    .parse()
                    .map_err(|e| format!("--slow-search-ms: {e}"))?
            }
            "--metrics-interval" => {
                args.metrics_interval = value("--metrics-interval")?
                    .parse()
                    .map_err(|e| format!("--metrics-interval: {e}"))?
            }
            "--chaos-shard-permille" => {
                args.chaos_shard_permille = value("--chaos-shard-permille")?
                    .parse()
                    .map_err(|e| format!("--chaos-shard-permille: {e}"))?
            }
            "--help" | "-h" => {
                return Err("usage: mileena-server [--addr A] [--dir P] [--shards N] \
                            [--queue-depth N] [--max-sessions N] [--slow-search-ms MS] \
                            [--metrics-interval SECS] [--chaos-shard-permille P]"
                    .to_string())
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

/// The deterministic shard-kill plan behind `--chaos-shard-permille`:
/// crash faults on the shard-call site, seeded from the first
/// `MILEENA_CHAOS_SEEDS` entry (default 11). Armed at boot.
fn chaos_plan(permille: u16) -> Option<Arc<FaultPlan>> {
    if permille == 0 {
        return None;
    }
    let seed = std::env::var("MILEENA_CHAOS_SEEDS")
        .ok()
        .and_then(|raw| raw.split(',').next().and_then(|s| s.trim().parse().ok()))
        .unwrap_or(11);
    let plan = Arc::new(FaultPlan::new(seed).with(
        FaultSite::ShardCall,
        FaultKind::Panic,
        u64::from(permille),
    ));
    plan.arm();
    Some(plan)
}

/// The platform, durable if `--dir` was given, sharded if `--shards` > 1.
fn build_service(
    args: &Args,
    plan: Option<Arc<FaultPlan>>,
) -> Result<Arc<dyn PlatformService + Send + Sync>, String> {
    let mut config = PlatformConfig { shards: args.shards, ..Default::default() };
    if let Some(depth) = args.queue_depth {
        config.scheduler.queue_depth = depth;
    }
    if let Some(max) = args.max_sessions {
        config.max_concurrent_sessions = max;
    }
    if let Some(dir) = &args.dir {
        config.storage = Some(StoragePolicy::at(dir));
    }
    config.scheduler.faults = plan;
    if args.shards > 1 {
        let platform = if config.storage.is_some() {
            ShardedPlatform::open_with(config).map_err(|e| e.to_string())?
        } else {
            ShardedPlatform::new(config)
        };
        restart_report(platform.recovery_report(), platform.num_datasets());
        Ok(Arc::new(platform))
    } else {
        let platform = if config.storage.is_some() {
            CentralPlatform::open_with(config).map_err(|e| e.to_string())?
        } else {
            CentralPlatform::new(config)
        };
        restart_report(platform.recovery_report(), platform.num_datasets());
        Ok(Arc::new(platform))
    }
}

/// One-line restart report on stderr (stdout's first line must stay the
/// `listening on` banner harnesses parse). Printed once recovery's eager
/// phase is done — lazy sketches keep hydrating after this line while the
/// server already answers searches.
fn restart_report(recovery: Option<mileena_core::RecoveryReport>, datasets: usize) {
    let Some(r) = recovery else { return };
    eprintln!(
        "restart: snapshot seq {} + {} delta(s), {} bytes, {datasets} dataset(s) \
         ({} lazy), replayed {} record(s), eager {} ms (replay {} ms)",
        r.snapshot_seq.map_or_else(|| "none".to_string(), |s| s.to_string()),
        r.delta_links,
        r.snapshot_bytes,
        r.lazy_datasets,
        r.replayed_records,
        r.eager_ms,
        r.replay_ms,
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let plan = chaos_plan(args.chaos_shard_permille);
    let service = match build_service(&args, plan.clone()) {
        Ok(service) => service,
        Err(msg) => {
            eprintln!("mileena-server: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let slow_log = (args.slow_search_ms > 0).then(|| {
        Arc::new(SlowSearchLog::new(
            args.slow_search_ms.saturating_mul(1_000_000),
            Box::new(std::io::stderr()),
        ))
    });
    let server_config = TcpServerConfig { slow_log: slow_log.clone(), ..Default::default() };
    let server = match TcpServer::bind(args.addr.as_str(), Arc::clone(&service), server_config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("mileena-server: bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();

    // Periodic Prometheus-style dump to stderr, when asked for. Dropping
    // `stop_dumper` at shutdown ends the wait at once.
    let (stop_dumper, stopped) = mpsc::channel::<()>();
    let dumper = (args.metrics_interval > 0).then(|| {
        let service = Arc::clone(&service);
        let interval = Duration::from_secs(args.metrics_interval);
        std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                if let Ok(report) = service.metrics() {
                    eprint!("{}", render_prometheus(&report));
                }
            }
        })
    });

    // Serve until the operator says stop: a "shutdown" line or stdin EOF
    // (so a dying supervisor takes the server down with it). A "metrics"
    // line dumps the current metrics to stdout, on demand.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(cmd) if cmd.trim() == "shutdown" => break,
            Ok(cmd) if cmd.trim() == "metrics" => {
                match service.metrics() {
                    Ok(report) => print!("{}", render_prometheus(&report)),
                    Err(e) => eprintln!("mileena-server: metrics: {e}"),
                }
                println!("# EOF");
                let _ = std::io::stdout().flush();
            }
            // Chaos drill control: flip the fault plan at runtime and ack
            // on stdout so harnesses can sequence around the change.
            Ok(cmd) if cmd.trim() == "chaos off" => {
                if let Some(plan) = &plan {
                    plan.disarm();
                }
                println!("chaos off");
                let _ = std::io::stdout().flush();
            }
            Ok(cmd) if cmd.trim() == "chaos on" => {
                if let Some(plan) = &plan {
                    plan.arm();
                }
                println!("chaos on");
                let _ = std::io::stdout().flush();
            }
            Ok(_) => continue,
            Err(_) => break,
        }
    }

    server.shutdown();
    drop(stop_dumper);
    if let Some(handle) = dumper {
        let _ = handle.join();
    }
    // In-flight work has drained; persist what the WAL holds so a reopen
    // starts from a snapshot instead of a long replay.
    if args.dir.is_some() {
        if let Err(e) = service.checkpoint() {
            eprintln!("mileena-server: final checkpoint failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(log) = &slow_log {
        log.flush();
        eprintln!("slow-search log: {} record(s)", log.logged());
    }
    println!("shutdown complete");
    ExitCode::SUCCESS
}
